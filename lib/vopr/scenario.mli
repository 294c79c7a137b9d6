(** Table-driven cluster scenarios for the replicated directory group.

    A scenario is a named {!Gen.plan} (TigerBeetle [replica_test.zig]
    style): a clique of replicas [r0..r(n-1)] at node indexes
    [0..n-1] plus the client node, a [group] config, [Load] traffic,
    faults over validated windows and [Probe]s of leader stability.
    {!Runner} executes it like any other plan: it deploys a
    {!Weakset_repl.Group} member on every replica with one shared commit
    ledger, heals every fault 30 time units before the budget, and
    judges the ledger, each survivor's committed log and the probe
    results.

    Every row is seeded from its name alone and executed {e twice}; a
    row passes only if the two event digests are byte-identical and the
    oracle finds no issues. *)

type t = { name : string; plan : Gen.plan }

type outcome = {
  o_name : string;
  o_digest : string;
  o_events : int;
  o_deterministic : bool;  (** both executions produced the same digest *)
  o_issues : Oracle.issue list;
  o_committed : int;  (** ledger length: ops acked as committed *)
  o_ops_ok : int;
  o_ops_failed : int;
  o_mutation : Weakset_obs.Mutation.t option;  (** the mutation armed for both runs *)
  o_step_cap : int;  (** the engine step cap of each run *)
  o_run : Runner.result;  (** the first execution; its bundle replays the row *)
}

val passed : outcome -> bool

(** [run row] executes [row.plan] twice with {!Runner.execute} and
    judges it, with [mutation] armed in each execution.  Under
    {!Weakset_obs.Mutation.View_change_drop} the commit-safety verdicts
    must fire on any scenario that elects a new leader with traffic in
    flight; under {!Weakset_obs.Mutation.Shed_after_apply} the
    shed-divergence verdict must fire on any scenario that sheds a
    mutation (e.g. [retry-storm]).  [step_cap] defaults to
    {!Runner.default_step_cap}. *)
val run : ?step_cap:int -> ?mutation:Weakset_obs.Mutation.t -> t -> outcome

(** The shipped table (≥ 12 rows, all expected to pass unplanted). *)
val table : t list

val find : string -> t option
val pp_outcome : Format.formatter -> outcome -> unit
