(** Per-node client cache for directory memberships and immutable
    object values, with TTL leases and server-pushed invalidation.

    The coherence model is Coda's callback scheme degraded gracefully
    (see DESIGN.md §12): every cacheable server answer carries a lease —
    a promise that the server will push an [Inval] callback before the
    cached view goes stale, valid for [ttl] units of virtual time.
    While the holder is connected, callbacks keep cached memberships
    fresh to within one message flight; across a partition no callback
    can arrive, and the lease bound takes over — an entry found past its
    lease is discarded at lookup time, never served.

    Object values are immutable once written, so the object pool needs
    no invalidation; it is bounded by [capacity] and LRU-evicted.
    Directory entries (one per set) carry the full lease machinery and
    are dropped by wire callbacks, by the owner's own mutations
    (read-your-writes), or by expiry.

    Every hit, miss, invalidation, expiry and eviction is published as a
    typed [cache] event on the engine's bus and counted in the metrics
    registry under [cache.*], labelled by node. *)

type config = { capacity : int; ttl : float }
(** [capacity] bounds the object pool (entries); [ttl] is the default
    client-side lease applied to fetched objects and the lease requested
    from servers for memberships. *)

val default_config : config
(** [{ capacity = 256; ttl = 30.0 }] *)

type t

val create : ?config:config -> Weakset_sim.Engine.t -> node:int -> t
(** [create engine ~node] makes an empty cache clocked by [engine]'s
    virtual time, publishing events and metrics as node [node]. *)

val node : t -> int
val config : t -> config

(** Counter snapshot, read back from the metrics registry. *)
type stats = {
  hit_dir : int;
  hit_obj : int;
  miss_dir : int;
  miss_obj : int;
  inval : int;       (** wire callbacks that dropped an entry *)
  self_inval : int;  (** own-mutation drops (read-your-writes) *)
  expire_dir : int;
  expire_obj : int;
  evict : int;       (** LRU evictions from the object pool *)
}

val stats : t -> stats

val labels : node:int -> (string * string) list
(** Metric labels of node [node]'s cache counters, for
    [Metrics.peek_counter]. *)

(** {2 Directory memberships} *)

val find_dir : t -> set_id:int -> (Version.t * Oid.t list) option
(** Serve the cached membership of [set_id] if present and inside its
    lease.  An entry past its lease is discarded (counted as an expiry
    {e and} a miss); every call counts as exactly one hit or miss. *)

val store_dir :
  t -> set_id:int -> version:Version.t -> members:Oid.t list -> lease:float -> unit
(** Cache a leased membership answer.  [lease <= 0] stores nothing. *)

val wire_inval : t -> set_id:int -> version:Version.t -> unit
(** Handle a server [Inval] callback: drop the cached membership of
    [set_id] (no-op if nothing is cached — the callback raced a local
    drop).  Dropped entirely while {!Weakset_obs.Mutation.Inval_drop} is
    armed, so the VOPR oracle's [Stale_beyond_lease] verdict must fire. *)

val self_inval : t -> set_id:int -> unit
(** Drop the cached membership of [set_id] after one of the owner's own
    mutations, without waiting for the callback to loop back. *)

(** {2 Object values} *)

val find_obj : ?count_miss:bool -> t -> Oid.t -> Svalue.t option
(** Serve the cached value of an oid if present and inside its lease,
    bumping its LRU position.  [count_miss] (default [true]) controls
    whether an unsuccessful probe is counted and published as a miss —
    pass [false] for opportunistic probes that will not be followed by a
    fetch of the same oid. *)

val store_obj : t -> Oid.t -> Svalue.t -> lease:float -> unit
(** Cache a fetched value; evicts least-recently-used entries while over
    capacity.  Eviction order is a pure function of the access history
    (ties broken by oid), so seed-identical runs stay byte-identical. *)

(** {2 Introspection (tests)} *)

val obj_count : t -> int
val dir_count : t -> int
val contains_obj : t -> Oid.t -> bool
