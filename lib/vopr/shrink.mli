(** Delta-debugging minimiser for failing plans.

    Given a failing plan and a [run] callback (typically
    [fun p -> (Runner.execute p).issues]), {!minimize} greedily searches
    for a smaller plan whose failure overlaps the original's
    ({!Oracle.same_failure} on the issue lists — categories, not exact
    messages, so shrunk schedules may surface the same bug at a different
    site).  Three reduction passes run to fixpoint:

    - drop one workload op at a time;
    - drop one fault event at a time;
    - shorten fault durations (halve the [at .. heal_at/recover_at/until]
      window, keeping the heal strictly after the start so the shrunk
      plan still passes {!Weakset_net.Fault.schedule_partition}'s
      validation).

    Every candidate is a full deterministic re-execution, so the search
    is bounded by [max_runs] rather than wall-clock guesswork.  The
    plan's seed, config and budget are never changed: the repro bundle
    of the shrunk plan replays in the same cluster. *)

type stats = {
  runs : int;  (** candidate executions performed *)
  kept : int;  (** candidates that preserved the failure *)
  initial_events : int;  (** {!Gen.event_count} before shrinking *)
  final_events : int;  (** {!Gen.event_count} after shrinking *)
}

(** [minimize ~run ~issues plan] returns the smallest failing plan found
    together with its issue list and search statistics.  [issues] is the
    original failing verdict (must be non-empty).  [max_runs] (default
    [200]) bounds candidate executions. *)
val minimize :
  ?max_runs:int ->
  run:(Gen.plan -> Oracle.issue list) ->
  issues:Oracle.issue list ->
  Gen.plan ->
  Gen.plan * Oracle.issue list * stats
