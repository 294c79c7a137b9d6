(** The run-and-judge steps both VOPR executors share.  {!Runner}
    (generated plans) and {!Scenario} (table rows) each build their own
    world and gather their own evidence; the rest is here. *)

(** Engine events processed before a run is declared a livelock. *)
val default_step_cap : int

(** What a world contributes to {!Oracle.input}. *)
type evidence = {
  iterations : Oracle.iteration_input list;
  cache : Oracle.cache_evidence option;
  repl : Oracle.repl_evidence option;
}

type 'a judged = {
  world : 'a;  (** what the world's collector returned *)
  digest : string;  (** chained digest of the full event stream *)
  events : int;  (** events fed to the digest *)
  steps : int;  (** engine events processed *)
  issues : Oracle.issue list;  (** empty = run passed *)
}

(** [run ~seed ~step_cap ~mutation build] arms [mutation] (see
    {!Weakset_obs.Mutation.with_armed}) for the whole execution, creates
    the engine from [seed], attaches the digest sink and then the
    accounting sink, and calls [build eng] to construct the world.
    [build] returns a collector, called once the engine stops (at
    quiescence or [step_cap]), whose evidence is judged with the
    engine-level facts (crashes, parked fibers, unmatched RPCs). *)
val run :
  seed:int64 ->
  step_cap:int ->
  mutation:Weakset_obs.Mutation.t option ->
  (Weakset_sim.Engine.t -> unit -> 'a * evidence) ->
  'a judged
