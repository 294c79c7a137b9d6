(** Weak sets: the paper's abstraction, complete with [create]/[add]/
    [remove]/[size] procedures and the [elements] iterator whose semantics
    is the chosen point of the design space.

    A weak set is a handle onto a distributed collection: a membership
    directory on a coordinator node (possibly replicated) whose members
    are objects homed on arbitrary nodes.  Different handles with
    different semantics may name the same collection.

    Mutation discipline: under {!Semantics.immutable} the procedures
    acquire the directory's write lock, so they block while any
    (read-locking) iterator runs — this is precisely the §3.1 cost.
    Under the other semantics mutations go straight to the coordinator
    (grow-only directories must be hosted with the ghost-copy policy;
    see {!Weakset_store.Node_server.host_directory}). *)

type t

(** [make ?heal_signal ?coordinator_server client sref semantics].
    [coordinator_server] (the node server hosting [sref]'s directory)
    enables spec instrumentation of [elements ~instrument:true];
    [heal_signal] (usually {!Weakset_net.Fault.signal}) lets parked
    iterators wake on repair instead of polling once per time unit.
    Lock acquisition, by immutable-set iterators and mutators alike, may
    block for {!Impl.lock_timeout}. *)
val make :
  ?heal_signal:Weakset_sim.Signal.t ->
  ?coordinator_server:Weakset_store.Node_server.t ->
  Weakset_store.Client.t ->
  Weakset_store.Protocol.set_ref ->
  Semantics.t ->
  t

val semantics : t -> Semantics.t
val sref : t -> Weakset_store.Protocol.set_ref
val client : t -> Weakset_store.Client.t

(** [add t oid] makes the (already stored) object a member. *)
val add : t -> Weakset_store.Oid.t -> (unit, Weakset_store.Client.error) result

val remove : t -> Weakset_store.Oid.t -> (unit, Weakset_store.Client.error) result
val size : t -> (int, Weakset_store.Client.error) result

(** Current membership test (an authoritative coordinator read; remember
    that under weak semantics the answer may be stale by the time you act
    on it). *)
val mem : t -> Weakset_store.Oid.t -> (bool, Weakset_store.Client.error) result

(** The paper's [create]: provision a fresh collection — host its
    directory on [coordinator_server] with the ghost policy the semantics
    needs, start anti-entropy on the [replicas], and return the
    [set_ref] to {!make} handles from. *)
val provision :
  ?replicas:Weakset_store.Node_server.t list ->
  ?replica_interval:float ->
  set_id:int ->
  coordinator_server:Weakset_store.Node_server.t ->
  semantics:Semantics.t ->
  unit ->
  Weakset_store.Protocol.set_ref

(** [elements ?instrument t] opens an iterator with the handle's
    semantics (see {!Impl}).  With [instrument:true] (requires [coordinator_server])
    the run is recorded; retrieve the instrument from the returned pair
    to check conformance. *)
val elements : ?instrument:bool -> t -> Iterator.t * Instrument.t option

(** The executable spec this handle's semantics implements (see
    {!Semantics.spec_of}). *)
val spec : ?no_failures:bool -> t -> Weakset_spec.Figures.spec
