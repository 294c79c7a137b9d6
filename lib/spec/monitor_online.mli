(** Online spec-conformance checking: violations are caught {e while the
    run executes}, not only in post-hoc {!Monitor.replay}.

    Attach {!sink} to a bus: each [Spec_observe] event of the watched
    set feeds the underlying {!Monitor}, then two checks run —

    - {b always}: the spec's [constraint] clause between the new state
      and its predecessor.  The clauses are reflexive and transitive,
      so the consecutive-pair check is {e exactly} the all-pairs check;
      this costs one set comparison per state.  (Skipped for
      [During_run]-scoped specs, whose constraint window is only known
      when the run ends.)
    - {b sampled}: every [sample_every]-th observation, a full
      {!Figures.check} (ensures clauses, yielded discipline, optimistic
      guarantees) over the computation so far — the knob bounding
      monitoring overhead.

    Each new violation (deduped by clause, message and state index) is
    recorded and, when a bus is given, published as a [Spec_violation]
    event at the triggering event's time.  {!finish} runs one last full
    check, so the final violation set always contains everything replay
    would find on the same stream. *)

type t

(** [create ?bus ?on_violation ?sample_every ~set_id spec] —
    [sample_every] (default 16, must be positive) is the full-check
    sampling period.  [on_violation] fires once per distinct violation,
    at its discovery time, after the [Spec_violation] event (if any) is
    published — the direct trigger hook for flight recorders and
    fuzzing oracles. *)
val create :
  ?bus:Weakset_obs.Bus.t ->
  ?on_violation:(time:float -> Figures.violation -> unit) ->
  ?sample_every:int ->
  set_id:int ->
  Figures.spec ->
  t

(** Process one event (only the watched set's [Spec_observe] matter).
    Raises [Invalid_argument] after {!finish}. *)
val handle : t -> Weakset_obs.Event.t -> unit

(** [sink t] is [handle t], for [Weakset_obs.Bus.attach]. *)
val sink : t -> Weakset_obs.Event.t -> unit

(** Final full check at virtual time [time]; returns the overall
    verdict.  Idempotent (later calls just re-check). *)
val finish : t -> time:float -> Figures.verdict

(** The computation reconstructed so far. *)
val computation : t -> Computation.t

(** Distinct violations in discovery order. *)
val violations : t -> Figures.violation list

(** Number of sampled-or-final full checks run. *)
val full_checks : t -> int

(** Number of watched [Spec_observe] events consumed. *)
val observes : t -> int
