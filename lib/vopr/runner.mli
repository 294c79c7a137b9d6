(** Executes generated plans in the deterministic simulator, judges them,
    sweeps seed ranges and reads/writes replayable repro bundles.

    A plan executes in a fresh engine seeded with the plan's seed: the
    topology is built from the config (coordinator at index 0, client
    last, homes in between, ghost-copy directory policy so grow-only runs
    are well-posed), the fault schedule is installed through the
    {!Weakset_net.Fault} scheduled API — the same code path hand-written
    scenarios use — and two driver fibers walk the workload: a mutator
    for add/remove/size (honouring the write lock iff the plan contains
    an immutable iteration) and a sequential iteration driver that runs
    every [Iterate] with full spec instrumentation plus an online monitor
    attached to the bus.  The whole run streams into a chained
    {!Weakset_obs.Digest}, whose final value fingerprints the run:
    re-executing the same plan must reproduce it byte-identically. *)

type result = {
  plan : Gen.plan;
  digest : string;  (** chained digest of the full event stream *)
  events : int;  (** events fed to the digest *)
  steps : int;  (** engine events processed *)
  issues : Oracle.issue list;  (** empty = run passed *)
  iterations : Oracle.iteration_input list;
      (** every instrumented iteration with its recorded computation and
          chosen spec — the raw material the oracle judged, exposed so
          equivalence suites can re-judge the same runs under other
          checkers *)
  blackbox : Weakset_obs.Flight.dump list;
      (** flight-recorder dumps the run triggered (spec violations and
          node crashes mid-run, plus one post-run oracle verdict when the
          run failed), oldest first; deterministic per plan *)
  mutation : Weakset_obs.Mutation.t option;  (** the mutation armed for the run *)
  step_cap : int;  (** the engine step cap the run had *)
}

(** [execute plan] runs [plan] with [mutation] armed (default: none)
    and judges it; [step_cap] defaults to {!Harness.default_step_cap}. *)
val execute : ?step_cap:int -> ?mutation:Weakset_obs.Mutation.t -> Gen.plan -> result

(** [sweep ?step_cap ?mutation ?progress seeds] generates and executes
    one plan per seed, calling [progress] after each. *)
val sweep :
  ?step_cap:int ->
  ?mutation:Weakset_obs.Mutation.t ->
  ?progress:(int64 -> result -> unit) ->
  int64 list ->
  (int64 * result) list

(** {1 Repro bundles}

    One bundle format serves both executors: its subject is a generated
    plan or the name of a {!Scenario.table} row, and it records the
    mutation and step cap the run had, so {!replay} needs nothing else. *)

type subject = Plan of Gen.plan | Row of string

type bundle = {
  b_subject : subject;
  b_mutation : Weakset_obs.Mutation.t option;  (** armed again by {!replay} *)
  b_step_cap : int;  (** the step cap {!replay} runs with *)
  b_digest : string;  (** expected trace digest of replaying the subject *)
  b_events : int;
  b_issues : Oracle.issue list;  (** the recorded oracle verdict *)
  b_blackbox : string list;
      (** black-box dump documents captured at record time (see
          {!Weakset_obs.Flight}); embedded as escaped JSON strings so
          they round-trip byte-exactly.  Replays regenerate identical
          dumps, so they are not part of the replay comparison.  Scenario
          rows record none. *)
}

val bundle_of_result : result -> bundle
val bundle_of_outcome : Scenario.outcome -> bundle
val bundle_to_json : bundle -> string
val bundle_of_string : string -> (bundle, string) Stdlib.result
val write_bundle : path:string -> bundle -> unit
val read_bundle : path:string -> (bundle, string) Stdlib.result

(** Re-record a bundle's subject and compare against its recorded
    digest and verdict; each case carries the re-recorded bundle.
    [Reproduced] means digest, event count and failure categories all
    match.  Raises [Invalid_argument] for a row no longer in the table. *)
type replay_outcome =
  | Reproduced of bundle
  | Digest_mismatch of bundle
  | Verdict_mismatch of bundle

val replay : bundle -> replay_outcome
