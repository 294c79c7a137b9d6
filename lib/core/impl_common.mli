(** Shared plumbing for the iterator implementations: the per-iterator
    context, element choice (closest reachable first, deterministic
    tie-break), instrumentation shims, and blocking/backoff helpers. *)

type ctx = {
  client : Weakset_store.Client.t;
  sref : Weakset_store.Protocol.set_ref;
  instrument : Instrument.t option;
  heal_signal : Weakset_sim.Signal.t option;
      (** topology-change signal; optimistic iterators park on it *)
  retry_backoff : float;  (** poll interval when no signal is available *)
  lock_timeout : float;   (** how long lock acquisition may block *)
  max_fetch_attempts : int;
      (** pessimistic iterators give up on an element after this many
          failed fetches of a supposedly reachable home *)
}

val make_ctx :
  ?instrument:Instrument.t ->
  ?heal_signal:Weakset_sim.Signal.t ->
  ?retry_backoff:float ->
  ?lock_timeout:float ->
  ?max_fetch_attempts:int ->
  Weakset_store.Client.t ->
  Weakset_store.Protocol.set_ref ->
  ctx

val engine : ctx -> Weakset_sim.Engine.t

(** Pick the un-yielded candidate with the closest (cheapest-path)
    reachable home; ties break on oid number.  [None] if no candidate's
    home is reachable. *)
val pick_reachable : ctx -> Weakset_store.Oid.Set.t -> Weakset_store.Oid.t option

(** Park until the topology changes: waits on the heal signal when
    available (re-checking the generation to avoid lost wakeups), else
    sleeps [retry_backoff]. *)
val wait_for_change : ctx -> seen_generation:int -> unit

(** Current heal-signal generation (0 when no signal). *)
val signal_generation : ctx -> int

(** {1 Instrumentation shims (no-ops when not instrumented)} *)

(** Stop recording (detach the instrument's mutation hook); called by
    every implementation at close, {e before} releasing distributed
    resources, so post-run activity (ghost GC, lock handover) stays
    outside the recorded computation. *)
val inst_detach : ctx -> unit

(** [?linearised] is the member list the implementation's membership
    read delivered; the instrument records it as [s] instead of the
    directory-at-receipt, so the monitored pre-state is exactly the view
    the decision linearised on.  Pass the reply's [?version] with it so
    the instrument can cross-check the view against the directory's
    recorded membership at that version (see {!Instrument}). *)
val inst_first :
  ?version:Weakset_store.Version.t -> ?linearised:Weakset_store.Oid.Set.t -> ctx -> unit

val inst_started : ctx -> unit

val inst_retry :
  ?version:Weakset_store.Version.t -> ?linearised:Weakset_store.Oid.Set.t -> ctx -> unit
val inst_completed : ctx -> Weakset_spec.Sstate.termination -> unit

(** [inst_yield ctx oid] = [inst_completed ctx (Suspends oid)]. *)
val inst_yield : ctx -> Weakset_store.Oid.t -> unit
