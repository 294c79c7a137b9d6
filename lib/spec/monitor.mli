(** Online monitor: builds a {!Computation.t} from the [Spec_observe]
    events of one set.

    The instrumentation layer describes every capture point (first-state,
    invocation start/retry/completion, mutation) as one [Spec_observe]
    event.  The same value is published on the engine's bus and fed to
    the instrument's own monitor, so a monitor built live, one attached
    as a bus sink, and one {!replay}ed from a ring buffer or a JSONL
    trace all see one input and build the same computation.

    The paper models each invocation as an atomic transition, but real
    optimistic implementations block and retry inside an invocation.  The
    monitor therefore buffers the invocation's pre-state and lets the
    implementation {e refresh} it at each decisive directory read; the
    recorded pre-state is the one from the read the implementation
    actually acted on (the invocation's linearisation point).  An
    invocation that never completes (the iterator was still blocked when
    the run ended) leaves no pre/post pair, only {!blocked} = true. *)

type t

(** [create ~set_id] makes a monitor for the observations of set [set_id]. *)
val create : set_id:int -> t

val computation : t -> Computation.t

(** Value of the [yielded] history object as tracked by the monitor. *)
val yielded : t -> Elem.Set.t

(** Number of completed invocations. *)
val completed_invocations : t -> int

(** True while an invocation has started but not completed. *)
val blocked : t -> bool

(** [observe t ~time kind] records one capture at virtual time [time].
    Only [Spec_observe] events of the monitored set count; anything else
    is ignored.  The phase decides the transition:

    - [Phase_first] appends the first-state;
    - [Phase_invocation_start] buffers the candidate pre-state;
    - [Phase_invocation_retry] replaces it (the implementation re-read
      the directory while blocked);
    - [Phase_returns]/[Phase_fails]/[Phase_suspends] append the buffered
      pre-state and the post-state, updating [yielded] on a suspend;
    - [Phase_mutation] appends the mutated state (by any process).

    Raises [Invalid_argument] on a start while an invocation is open, or
    on a retry or completion with none open. *)
val observe : t -> time:float -> Weakset_obs.Event.kind -> unit

(** [handle t ev] is [observe t ~time:ev.time ev.kind]. *)
val handle : t -> Weakset_obs.Event.t -> unit

(** [sink t] is [handle t], for [Weakset_obs.Bus.attach]. *)
val sink : t -> Weakset_obs.Event.t -> unit

(** [replay ~set_id events] feeds a recorded stream (e.g. from
    [Weakset_obs.Ring.to_list]) through a fresh monitor. *)
val replay : set_id:int -> Weakset_obs.Event.t list -> t
