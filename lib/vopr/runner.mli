(** The one VOPR executor: validates plans, executes them in the
    deterministic simulator, judges them, sweeps seed ranges and
    reads/writes replayable repro bundles.  Generated plans
    ({!Gen.generate}) and the named cluster scenarios ({!Scenario.table})
    are both plans and run here.

    A plan executes in a fresh engine seeded with the plan's seed: the
    topology is built from the config (coordinator at index 0, client
    last, homes in between, ghost-copy directory policy so grow-only runs
    are well-posed), the fault schedule is installed through the
    {!Weakset_net.Fault} scheduled API, and driver fibers walk the
    workload: a mutator for add/remove/size (honouring the write lock
    iff the plan contains an immutable iteration), a sequential
    iteration driver that runs every [Iterate] with full spec
    instrumentation plus an online monitor attached to the bus, and one
    fiber per [Load] window.  A [group] plan also deploys a
    {!Weakset_repl.Group} over index [0] and the replica indexes, heals
    every fault 30 time units before the budget, and hands the commit
    ledger, each survivor's committed log and the probe results to
    {!Oracle.judge}.  The whole run streams into a chained
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
  committed : int;  (** commit-ledger length of a [group] plan (ops acked as committed) *)
  ops_ok : int;  (** [Load] and [Storm] ops acked *)
  ops_failed : int;  (** [Load] and [Storm] ops that failed *)
}

(** Raises [Invalid_argument] on a plan the runner cannot execute
    faithfully: fewer than four nodes; a replica index that is not a
    home node or is listed twice; a negative start time; an empty or
    inverted window on a [Crash], [Cut], [Partition], [Isolate], [Storm]
    or [Load]; a node outside its role (a crash target that is not a
    home node, or not a group member in a [group] plan; a cut with no
    such link; a partitioned or isolated node out of range); an unknown
    semantics; non-positive traffic parameters; a [Probe] without a
    group; and, in [group] plans, a budget within the 30-unit heal
    margin, [Load]/[Storm] traffic running past it, or members
    provisioned before time 0. *)
val validate : Gen.plan -> unit

(** Engine events processed before a run is declared a livelock. *)
val default_step_cap : int

(** [execute plan] validates [plan], runs it with [mutation] armed
    (default: none; see {!Weakset_obs.Mutation.with_armed}) in a fresh
    engine seeded with the plan seed, and judges it: the oracle sees the
    world's evidence together with the engine-level facts (crashes,
    parked fibers, unmatched RPCs).  The engine stops at quiescence or
    after [step_cap] events (default {!default_step_cap}). *)
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

    A bundle holds a plan — generated, shrunk or a scenario row's — and
    records the mutation and step cap the run had, so {!replay} needs
    nothing else. *)

type bundle = {
  b_plan : Gen.plan;
  b_mutation : Weakset_obs.Mutation.t option;  (** armed again by {!replay} *)
  b_step_cap : int;  (** the step cap {!replay} runs with *)
  b_digest : string;  (** expected trace digest of replaying the subject *)
  b_events : int;
  b_issues : Oracle.issue list;  (** the recorded oracle verdict *)
  b_blackbox : string list;
      (** black-box dump documents captured at record time (see
          {!Weakset_obs.Flight}); embedded as escaped JSON strings so
          they round-trip byte-exactly.  Replays regenerate identical
          dumps, so they are not part of the replay comparison.  Group
          plans record none. *)
}

val bundle_of_result : result -> bundle
val bundle_to_json : bundle -> string

(** Parses and {!validate}s a bundle: a plan the runner would refuse is
    an [Error], not a replay that convicts the program. *)
val bundle_of_string : string -> (bundle, string) Stdlib.result

val write_bundle : path:string -> bundle -> unit
val read_bundle : path:string -> (bundle, string) Stdlib.result

(** Re-record a bundle's plan and compare against its recorded digest
    and verdict; each case carries the re-recorded bundle.
    [Reproduced] means digest, event count and failure categories all
    match. *)
type replay_outcome =
  | Reproduced of bundle
  | Digest_mismatch of bundle
  | Verdict_mismatch of bundle

val replay : bundle -> replay_outcome
