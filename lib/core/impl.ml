module Client = Weakset_store.Client
module Oid = Weakset_store.Oid
module Version = Weakset_store.Version
module Protocol = Weakset_store.Protocol
module Lockmgr = Weakset_store.Lockmgr
module Topology = Weakset_net.Topology
module Engine = Weakset_sim.Engine
module Signal = Weakset_sim.Signal
module Sstate = Weakset_spec.Sstate

let lock_timeout = 600.0

(* Poll interval of a parked iterator when no heal signal is available. *)
let retry_backoff = 1.0

(* A pessimistic iterator gives up on an element after this many failed
   fetches of a supposedly reachable home. *)
let max_fetch_attempts = 5

(* What the iterator holds on the coordinator between open and close. *)
type guard = No_guard | Read_lock | Registration

(* Where a current-vintage membership read goes. *)
type host =
  | Coordinator
  | Coordinator_or_replica  (** any reachable replica while the coordinator is not *)
  | Nearest_host  (** the closest reachable host, possibly a stale replica *)

type source =
  | Pool  (** read once at the first call *)
  | Pinned  (** re-read at the version the first call's read pinned *)
  | Current of host  (** re-read every attempt *)

type reaction = Fail | Park

type plan = { guard : guard; source : source; reaction : reaction }

(* The whole Semantics.t -> behaviour mapping. *)
let plan (s : Semantics.t) =
  if s.linearizable then { guard = No_guard; source = Pinned; reaction = Park }
  else
    match (s.mutability, s.vintage, s.failure_handling) with
    | Immutable, _, _ -> { guard = Read_lock; source = Pool; reaction = Fail }
    | Grow_only, _, _ -> { guard = Registration; source = Current Coordinator; reaction = Fail }
    | Mutable_any, First_vintage, _ -> { guard = No_guard; source = Pool; reaction = Fail }
    | Mutable_any, Current_vintage, Pessimistic ->
        { guard = No_guard; source = Current Coordinator; reaction = Fail }
    | Mutable_any, Current_vintage, Optimistic ->
        let host = if s.read_nearest_replica then Nearest_host else Coordinator_or_replica in
        { guard = No_guard; source = Current host; reaction = Park }

type t = {
  client : Client.t;
  sref : Protocol.set_ref;
  instrument : Instrument.t option;
  heal_signal : Signal.t option;
  plan : plan;
  mutable opened : bool;
  mutable open_failure : Client.error option;
  mutable lock_owner : int option;
  mutable registered : bool;
  mutable pin : Version.t;  (* version of the first call's read *)
  mutable pool : Oid.Set.t;  (* s_first: the members that read delivered *)
  mutable yielded : Oid.Set.t;
  mutable dead : Oid.Set.t;  (* members whose contents are permanently gone *)
}

let coordinator t = t.sref.Protocol.coordinator
let set_id t = t.sref.Protocol.set_id

(* Instrumentation shims, no-ops when not instrumented.  A capture at a
   membership read passes the members the reply delivered as
   [linearised] (with the reply's [version]), so the monitored pre-state
   is exactly the view the decision linearised on. *)
let inst_first ?version ?linearised t =
  Option.iter (Instrument.observe_first ?version ?linearised) t.instrument

let inst_retry ?version ?linearised t =
  Option.iter (Instrument.invocation_retry ?version ?linearised) t.instrument

let inst_completed t term =
  Option.iter (fun i -> Instrument.invocation_completed i term) t.instrument

let signal_generation t = match t.heal_signal with Some s -> Signal.generation s | None -> 0

(* Park until the topology changes, re-checking the generation sampled
   before the failed attempt to avoid a lost wakeup. *)
let wait_for_change t ~seen_generation =
  let eng = Client.engine t.client in
  match t.heal_signal with
  | Some s -> if Signal.generation s = seen_generation then Signal.wait eng s
  | None -> Engine.sleep eng retry_backoff

(* The un-yielded candidate with the closest reachable home; ties break
   on oid number. *)
let pick_reachable t candidates =
  let topo = Client.topology t.client in
  let me = Client.node t.client in
  let better (oid, lat) (boid, blat) = lat < blat || (lat = blat && Oid.num oid < Oid.num boid) in
  Oid.Set.fold
    (fun oid best ->
      match Topology.path_latency topo me (Oid.home oid) with
      | None -> best
      | Some lat -> (
          match best with
          | Some b when not (better (oid, lat) b) -> best
          | Some _ | None -> Some (oid, lat)))
    candidates None
  |> Option.map fst

let acquire_guard t =
  match t.plan.guard with
  | No_guard -> Ok ()
  | Read_lock ->
      Client.lock_acquire (Client.with_timeout t.client lock_timeout) t.sref Lockmgr.Read
      |> Result.map (fun owner -> t.lock_owner <- Some owner)
  | Registration -> Client.iter_open t.client t.sref |> Result.map (fun () -> t.registered <- true)

(* The first call's read of a pool or pinned source: uncached when it
   pins a version.  The vintage is the membership this reply delivered,
   not the directory at receipt.  A parking iterator retries until the
   read lands; nothing is recorded before it does. *)
let rec read_first t =
  let gen = signal_generation t in
  let read =
    match t.plan.source with
    | Pinned -> Client.dir_read_direct
    | Pool | Current _ -> Client.dir_read
  in
  match read t.client ~from:(coordinator t) ~set_id:(set_id t) with
  | Ok (version, members) ->
      t.pin <- version;
      t.pool <- Oid.Set.of_list members;
      inst_first ~version ~linearised:t.pool t;
      Ok ()
  | Error e -> (
      match t.plan.reaction with
      | Fail -> Error e
      | Park ->
          wait_for_change t ~seen_generation:gen;
          read_first t)

let ensure_open t =
  if not t.opened then begin
    t.opened <- true;
    let first () =
      match t.plan.source with
      | Current _ ->
          inst_first t;
          Ok ()
      | Pool | Pinned -> read_first t
    in
    match Result.bind (acquire_guard t) first with
    | Ok () -> ()
    | Error e -> t.open_failure <- Some e
  end

let membership_host t = function
  | Coordinator -> Some (coordinator t)
  | Nearest_host -> Client.nearest_dir_host t.client t.sref
  | Coordinator_or_replica ->
      let topo = Client.topology t.client and me = Client.node t.client in
      List.find_opt (Topology.reachable topo me) (coordinator t :: t.sref.Protocol.replicas)

(* This attempt's membership.  A coordinator (or pinned) reply is
   authoritative, so what it delivered is recorded as the pre-state; a
   replica reply is deliberately stale and its gap from the directory is
   the measured quantity, so the capture there stays omniscient. *)
let read_members t =
  match t.plan.source with
  | Pool -> Ok t.pool
  | Pinned -> (
      match Client.dir_read_at t.client ~from:(coordinator t) ~set_id:(set_id t) ~version:t.pin with
      | Error e -> Error e
      | Ok (_, members) ->
          let members = Oid.Set.of_list members in
          inst_retry ~version:t.pin ~linearised:members t;
          Ok members)
  | Current host -> (
      match membership_host t host with
      | None -> Error Client.Unreachable
      | Some host -> (
          match Client.dir_read t.client ~from:host ~set_id:(set_id t) with
          | Error e -> Error e
          | Ok (version, members) ->
              let members = Oid.Set.of_list members in
              if Weakset_net.Nodeid.equal host (coordinator t) then
                inst_retry ~version ~linearised:members t
              else inst_retry t;
              Ok members))

let fail t e =
  inst_completed t Sstate.Fails;
  Iterator.Failed e

let rec attempt t ~refresh ~failures =
  (* The recorded pre-state must be the one the invocation finally acts
     on, so every retry refreshes the monitor's buffered pre-state. *)
  if refresh then inst_retry t;
  (* Sample the repair-signal generation before deciding, so a repair
     racing our reads cannot be missed while parking. *)
  let gen = signal_generation t in
  match read_members t with
  | Error e -> ( match t.plan.reaction with Fail -> fail t e | Park -> park t ~gen ~failures)
  | Ok members -> (
      let remaining = Oid.Set.diff (Oid.Set.diff members t.yielded) t.dead in
      if Oid.Set.is_empty remaining then begin
        inst_completed t Sstate.Returns;
        Iterator.Done
      end
      else
        match pick_reachable t remaining with
        | None -> (
            (* Un-yielded members exist but none is accessible. *)
            match (t.plan.reaction, t.plan.source) with
            | Park, _ -> park t ~gen ~failures
            | Fail, Current _ when Weakset_obs.Mutation.(armed Grow_only_drop) ->
                (* Planted bug (mutation testing): silently drop the
                   unreachable members and pretend the iteration is
                   complete instead of signalling the failure. *)
                t.yielded <- Oid.Set.union t.yielded remaining;
                inst_completed t Sstate.Returns;
                Iterator.Done
            | Fail, _ -> fail t Client.Unreachable)
        | Some oid -> (
            match Client.fetch t.client oid with
            | Ok v ->
                t.yielded <- Oid.Set.add oid t.yielded;
                inst_completed t (Instrument.suspends oid);
                Iterator.Yield (oid, v)
            | Error err -> (
                match (t.plan.reaction, t.plan.source, err) with
                | Fail, _, Client.No_such_object ->
                    (* The member's contents are gone: indistinguishable
                       from a permanent failure. *)
                    fail t Client.No_such_object
                | ( Fail,
                    _,
                    ( Client.Unreachable | Client.Timeout | Client.No_service | Client.Overloaded
                    | Client.Budget_exhausted ) ) ->
                    if failures + 1 >= max_fetch_attempts then fail t Client.Timeout
                    else
                      (* Reachability changed under us; re-linearise. *)
                      attempt t ~refresh:true ~failures:(failures + 1)
                | Park, Current _, Client.No_such_object ->
                    (* A stale view listed a member whose contents are
                       gone; skip it rather than retry forever. *)
                    t.dead <- Oid.Set.add oid t.dead;
                    attempt t ~refresh:true ~failures
                | Park, _, _ ->
                    (* Expect repair.  A pinned member in particular has
                       no stale view to blame: its contents must reappear
                       for the snapshot to be honoured. *)
                    park t ~gen ~failures)))

and park t ~gen ~failures =
  wait_for_change t ~seen_generation:gen;
  attempt t ~refresh:true ~failures

let next t () =
  ensure_open t;
  match t.open_failure with
  | Some e -> Iterator.Failed e
  | None ->
      Option.iter Instrument.invocation_started t.instrument;
      attempt t ~refresh:false ~failures:0

let close t () =
  (* Stop recording before releasing distributed resources, so post-run
     activity (ghost GC, lock handover) stays outside the recorded
     computation. *)
  Option.iter Instrument.detach t.instrument;
  (match t.lock_owner with
  | Some owner ->
      t.lock_owner <- None;
      ignore (Client.lock_release t.client t.sref ~owner)
  | None -> ());
  if t.registered then begin
    t.registered <- false;
    ignore (Client.iter_close t.client t.sref)
  end

let open_ ?instrument ?heal_signal client sref semantics =
  let t =
    {
      client;
      sref;
      instrument;
      heal_signal;
      plan = plan semantics;
      opened = false;
      open_failure = None;
      lock_owner = None;
      registered = false;
      pin = Version.zero;
      pool = Oid.Set.empty;
      yielded = Oid.Set.empty;
      dead = Oid.Set.empty;
    }
  in
  Iterator.make ~next:(next t) ~close:(close t)
