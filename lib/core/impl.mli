(** The one [elements] iterator loop, for every point of the design space.

    Each invocation reads the membership, picks the un-yielded member
    whose home is closest (cheapest reachable path; ties break on oid
    number), fetches it and yields it.  The three choices of paper §3 are
    made once, when the iterator is opened, from the {!Semantics.t}:

    - {e open}: a distributed read lock held for the whole run (immutable
      sets, Figures 1/3 — mutators using {!Weak_set.add}'s write-lock
      discipline block for the whole iteration, the §3.1 cost); an
      [Iter_open] registration with the coordinator (grow-only sets,
      Figure 5 — a ghost-policy directory defers removals until the last
      registered iterator closes, §3.3); or nothing.
    - {e membership source}: a pool read once, atomically, at the first
      call (first vintage, Figures 3/4 — concurrent mutations are
      invisible); a re-read at the directory version pinned by an
      authoritative read at the first call (the linearizable snapshot
      point, arXiv:1705.08885 — the coordinator's log below the pin is
      immutable, so no lock is needed); or a re-read of the current
      membership (current vintage, Figures 5/6 — from the coordinator,
      or with [read_nearest_replica] from the closest, possibly stale,
      membership host).
    - {e failure reaction}: a pessimistic iterator signals failure as
      soon as an un-yielded member is inaccessible, the membership cannot
      be read, or a fetch fails repeatedly; an optimistic one (and the
      lin point) parks on the heal signal and retries, so an iteration
      over a permanently partitioned set never terminates — by design
      (§3.4).

    [linearizable] overrides every other field; an immutable set is a
    locked pool whatever its vintage; a grow-only set registers whatever
    its failure handling; failure handling and [read_nearest_replica]
    matter only for a mutable current-vintage set. *)

(** [open_ ?instrument ?heal_signal client sref semantics].  Nothing
    happens until the first {!Iterator.next} (the paper's first-state is
    the state of the first call).  [heal_signal] (usually
    {!Weakset_net.Fault.signal}) lets a parked iterator wake on repair
    instead of polling. *)
val open_ :
  ?instrument:Instrument.t ->
  ?heal_signal:Weakset_sim.Signal.t ->
  Weakset_store.Client.t ->
  Weakset_store.Protocol.set_ref ->
  Semantics.t ->
  Iterator.t

(** How long acquiring the set's read or write lock may block. *)
val lock_timeout : float
