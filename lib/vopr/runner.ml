module Engine = Weakset_sim.Engine
module Rng = Weakset_sim.Rng
module Arrival = Weakset_load.Arrival
module Topology = Weakset_net.Topology
module Nodeid = Weakset_net.Nodeid
module Fault = Weakset_net.Fault
module Rpc = Weakset_net.Rpc
module Node_server = Weakset_store.Node_server
module Directory = Weakset_store.Directory
module Version = Weakset_store.Version
module Client = Weakset_store.Client
module Cache = Weakset_store.Cache
module Oid = Weakset_store.Oid
module Svalue = Weakset_store.Svalue
module Protocol = Weakset_store.Protocol
module Group = Weakset_repl.Group
module Semantics = Weakset_core.Semantics
module Weak_set = Weakset_core.Weak_set
module Iterator = Weakset_core.Iterator
module Instrument = Weakset_core.Instrument
module Monitor_online = Weakset_spec.Monitor_online
module Figures = Weakset_spec.Figures
module Bus = Weakset_obs.Bus
module Event = Weakset_obs.Event
module Json = Weakset_obs.Json
module Flight = Weakset_obs.Flight
module Digest = Weakset_obs.Digest
module Mutation = Weakset_obs.Mutation

type result = {
  plan : Gen.plan;
  digest : string;
  events : int;
  steps : int;
  issues : Oracle.issue list;
  iterations : Oracle.iteration_input list;
  blackbox : Flight.dump list;
  mutation : Mutation.t option;
  step_cap : int;
  committed : int;
  ops_ok : int;
  ops_failed : int;
}

let set_id = 1

(* Engine events processed before a run is declared a livelock. *)
let default_step_cap = 1_000_000

(* Group plans heal every fault this long before the budget, so the
   group has a quiet window to elect, converge and answer the final
   liveness probe. *)
let heal_margin = 30.0

(* ------------------------------------------------------------------ *)
(* Plan validation (fail fast with a message instead of mid-sim)       *)
(* ------------------------------------------------------------------ *)

let link_exists shape n a b =
  a <> b && a >= 0 && b >= 0 && a < n && b < n
  &&
  match shape with
  | Gen.Clique -> true
  | Gen.Star -> a = 0 || b = 0
  | Gen.Line -> abs (a - b) = 1

let validate plan =
  let c = plan.Gen.config in
  let n = c.Gen.nodes in
  let fail fmt = Printf.ksprintf (fun m -> invalid_arg ("Vopr.Runner: " ^ m)) fmt in
  if n < 4 then fail "config.nodes must be >= 4";
  List.iter
    (fun ix -> if ix < 1 || ix > n - 2 then fail "replica index %d is not a home node" ix)
    c.Gen.replica_ixs;
  if List.length (List.sort_uniq compare c.Gen.replica_ixs) <> List.length c.Gen.replica_ixs
  then fail "a replica index is listed twice";
  if c.Gen.group then begin
    if plan.Gen.budget <= heal_margin then
      fail "budget %g leaves no heal margin" plan.Gen.budget;
    (* Members the ledger never saw would read as effects outside
       consensus. *)
    if c.Gen.initial_size > 0 then fail "a group plan starts from an empty directory"
  end;
  (match c.Gen.admission with
  | Some cap when cap < 1 -> fail "admission capacity must be >= 1"
  | _ -> ());
  let start what at = if at < 0.0 then fail "%s at %g is negative" what at in
  let window what at until =
    start what at;
    if until <= at then fail "%s window [%g, %g] is empty or inverted" what at until
  in
  let traffic what ~until ~every =
    if every <= 0.0 then fail "%s every %g must be positive" what every;
    if c.Gen.group && until > plan.Gen.budget -. heal_margin then
      fail "%s runs past the heal margin (until %g)" what until
  in
  List.iter
    (function
      | Gen.Add { at } | Gen.Remove { at } | Gen.Size { at } -> start "op" at
      | Gen.Iterate { at; semantics; _ } ->
          start "iterate" at;
          if not (List.mem_assoc semantics Semantics.all) then
            fail "unknown semantics %S" semantics
      | Gen.Load { at; until; every } ->
          window "load" at until;
          traffic "load" ~until ~every
      | Gen.Probe { at } ->
          start "probe" at;
          if not c.Gen.group then fail "a probe needs a replication group")
    plan.Gen.ops;
  List.iter
    (function
      | Gen.Crash { node; at; recover_at } ->
          window "crash" at recover_at;
          if c.Gen.group then begin
            if node <> 0 && not (List.mem node c.Gen.replica_ixs) then
              fail "crash target %d is not a group member" node
          end
          else if node < 1 || node > n - 2 then fail "crash target %d is not a home node" node
      | Gen.Cut { a; b; at; heal_at } ->
          window "cut" at heal_at;
          if not (link_exists c.Gen.shape n a b) then fail "no link %d-%d in this topology" a b
      | Gen.Partition { groups; at; heal_at } ->
          window "partition" at heal_at;
          List.iter
            (List.iter (fun ix ->
                 if ix < 0 || ix >= n then fail "partition node %d out of range" ix))
            groups
      | Gen.Isolate { node; at; heal_at } ->
          window "isolate" at heal_at;
          if node < 0 || node >= n then fail "isolated node %d out of range" node
      | Gen.Herd { at; clients; burst } ->
          start "herd" at;
          if clients < 1 || burst < 1 then fail "herd clients and burst must be >= 1"
      | Gen.Storm { at; until; clients; every } ->
          window "storm" at until;
          traffic "storm" ~until ~every;
          if clients < 1 then fail "storm clients must be >= 1")
    plan.Gen.faults;
  match c.Gen.open_loop with
  | Some { Gen.ol_rate; ol_clients; _ } ->
      if ol_rate <= 0.0 || ol_clients < 1 then
        fail "open_loop rate must be positive and clients >= 1"
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

type iter_record = {
  ir_index : int;
  ir_semantics : string;
  ir_spec : Figures.spec;
  ir_online : Monitor_online.t;
  mutable ir_outcome : [ `Done | `Failed of string | `Limit | `Unfinished ];
  mutable ir_computation : Weakset_spec.Computation.t option;
  mutable ir_finished : bool;
}

(* The spec each iteration is judged against: the paper figure of its
   semantics; Figure 1 when the plan injects no faults at all; the §3.4
   window relaxation when reading possibly-stale replicas (ablation A1
   showed literal Figure 6 is the wrong judge for those) — and likewise
   for any optimistic run racing removals, where a remove landing between
   the membership read an invocation linearises on and its yield makes
   literal Figure 6's current-vintage clause unsatisfiable (the repo's
   own integration suite judges that combination against the window
   spec). *)
let spec_for plan sem =
  let has_removes = List.exists (function Gen.Remove _ -> true | _ -> false) plan.Gen.ops in
  (* The linearizable iterator pins its snapshot with uncached
     authoritative reads, so neither the lease cache nor stale replicas
     weaken what it promises: always judge it against the lin spec. *)
  if sem.Semantics.linearizable then Figures.lin
  (* A lease cache makes every membership read potentially (boundedly)
     stale — exactly the situation the §3.4 window relaxation models, so
     cache-enabled plans are always judged against it.  Whether the
     staleness stayed within its lease is the cache oracle's separate,
     stricter question. *)
  else if plan.Gen.config.Gen.cache then Semantics.window_spec_of sem
  else if sem.Semantics.read_nearest_replica then Semantics.window_spec_of sem
  else if sem.Semantics.failure_handling = Semantics.Optimistic && has_removes then
    Semantics.window_spec_of sem
  else Semantics.spec_of ~no_failures:(plan.Gen.faults = []) sem

(* Fold canonical op renderings ("add oN@nM" / "remove oN@nM", see
   {!Group.op_str}) back into a membership list. *)
let fold_members ops =
  List.fold_left
    (fun acc op ->
      match String.index_opt op ' ' with
      | None -> acc
      | Some sp ->
          let verb = String.sub op 0 sp in
          let oid = String.sub op (sp + 1) (String.length op - sp - 1) in
          let without = List.filter (fun m -> not (String.equal m oid)) acc in
          if String.equal verb "add" then oid :: without
          else if String.equal verb "remove" then without
          else acc)
    [] ops

(* What the post-run collector hands to {!execute}: the evidence for
   the oracle and the rest of the result. *)
type world = {
  w_flight : Flight.t option;
  w_iterations : Oracle.iteration_input list;
  w_cache : Oracle.cache_evidence option;
  w_repl : Oracle.repl_evidence option;
  w_committed : int;
  w_ops_ok : int;
  w_ops_failed : int;
}

(* Builds [plan]'s world on [eng] and returns the collector {!execute}
   calls once the engine stops (at quiescence or the step cap). *)
let build plan eng =
  validate plan;
  let c = plan.Gen.config in
  let n = c.Gen.nodes in
  let bus = Engine.bus eng in
  (* Always-on black box: triggers itself on spec violations and node
     crashes during the run; the oracle adds a post-run verdict trigger.
     Ring capacity is modest — dumps ride inside repro bundles.  Group
     plans run without one: their dumps would cost allocation nobody
     reads. *)
  let flight =
    if c.Gen.group then None else Some (Flight.create ~capacity:256 ~debounce:100.0 bus)
  in
  let topo = Topology.create () in
  let nodes =
    match c.Gen.shape with
    | Gen.Clique -> Topology.clique topo n ~latency:c.Gen.latency
    | Gen.Star ->
        let hub, leaves = Topology.star topo (n - 1) ~latency:c.Gen.latency in
        Array.append [| hub |] leaves
    | Gen.Line -> Topology.line topo n ~latency:c.Gen.latency
  in
  let rpc = Rpc.create eng topo in
  let admission = Option.map (fun capacity -> { Node_server.capacity }) c.Gen.admission in
  (* In a group plan the client node runs no store service, so its RPC
     demux starts with its first call, like any pure client's. *)
  let servers =
    Array.init
      (if c.Gen.group then n - 1 else n)
      (fun i -> Node_server.create ~lease_ttl:c.Gen.lease_ttl ?admission rpc nodes.(i))
  in
  let fault = Fault.create eng topo in
  (* Ghost-copy policy unconditionally: it only defers removals while
     grow-only iterators are registered, and without it a grow-only run
     concurrent with removals violates its own type constraint — an
     environment bug, not an implementation bug. *)
  let members = if c.Gen.group then 0 :: c.Gen.replica_ixs else [ 0 ] in
  let member_nodes = List.map (fun ix -> nodes.(ix)) members in
  List.iter
    (fun ix ->
      Node_server.host_directory servers.(ix) ~set_id
        ~policy:Node_server.Defer_removes_while_iterating)
    members;
  (* A group member on every directory host, sharing one commit ledger;
     without a group the replicas are anti-entropy pull replicas. *)
  let ledger = Group.Ledger.create () in
  let groups =
    if c.Gen.group then
      List.map
        (fun ix ->
          Group.create rpc ~set_id ~members:member_nodes ~me:nodes.(ix) ~ledger
            ~server:servers.(ix))
        members
    else []
  in
  List.iter (fun g -> Group.start g ~until:plan.Gen.budget) groups;
  if not c.Gen.group then
    List.iter
      (fun ix ->
        Node_server.host_replica servers.(ix) ~set_id ~of_:nodes.(0)
          ~interval:c.Gen.replica_interval ~until:plan.Gen.budget)
      c.Gen.replica_ixs;
  (* The iterating client is the (only) lease-cache holder when the plan
     enables caching.  The mutator gets its own uncached client: sharing
     would let read-your-writes self-invalidation mask a broken wire
     callback — exactly the bug class the cache oracle exists to catch. *)
  let client =
    if c.Gen.cache then
      Client.create ~cache:{ Cache.capacity = 256; ttl = c.Gen.lease_ttl } rpc nodes.(n - 1)
    else Client.create rpc nodes.(n - 1)
  in
  let mut_client = Client.create rpc nodes.(n - 1) in
  let sref =
    {
      Protocol.set_id;
      coordinator = nodes.(0);
      replicas = List.map (fun ix -> nodes.(ix)) c.Gen.replica_ixs;
    }
  in
  (* Seed membership. *)
  let next_num = ref 0 in
  let homes = n - 2 in
  let fresh_member () =
    incr next_num;
    let home_ix = 1 + (!next_num mod homes) in
    let oid = Oid.make ~num:!next_num ~home:nodes.(home_ix) in
    Node_server.put_object servers.(home_ix) oid
      (Svalue.make (Printf.sprintf "element-%d" !next_num));
    oid
  in
  for _ = 1 to c.Gen.initial_size do
    let oid = fresh_member () in
    ignore (Directory.apply (Node_server.directory_truth servers.(0) ~set_id) (Directory.Add oid))
  done;
  (* Cache-coherence evidence: the coordinator's mutation log (time and
     resulting version) and every directory cache hit the bus carries.
     Both feed the oracle's stale-beyond-lease rule. *)
  let mutation_log = ref [] in
  let cache_hits = ref [] in
  if c.Gen.cache then begin
    let truth = Node_server.directory_truth servers.(0) ~set_id in
    let (_ : unit -> unit) =
      Node_server.on_directory_mutation servers.(0) ~set_id (fun _op ->
          mutation_log :=
            (Engine.now eng, Version.to_int (Directory.version truth)) :: !mutation_log)
    in
    Bus.attach bus ~name:"vopr-cache" (fun ev ->
        match ev.Event.kind with
        | Event.Cache_hit { ckind = Event.Cache_dir; id; version; age; _ } ->
            cache_hits :=
              { Oracle.h_time = ev.Event.time; h_set = id; h_version = version; h_age = age }
              :: !cache_hits
        | _ -> ())
  end;
  (* Background-load traffic (open-loop arrivals and thundering herds)
     reads through its own uncached client: authoritative size queries
     that stress the coordinator without touching the lease cache the
     oracle is watching.  Lazy so plans without either knob build the
     exact same world as before. *)
  let bg_handle =
    lazy (Weak_set.make (Client.create rpc nodes.(n - 1)) sref Semantics.optimistic)
  in
  (* Load and storm traffic: every op counts as acked or failed. *)
  let ops_ok = ref 0 and ops_failed = ref 0 in
  let count = function Ok () -> incr ops_ok | Error _ -> incr ops_failed in
  (* Every spawn and schedule call is an event in the digest, so the
     install order — load windows, then faults, then probes — is part of
     a plan's replay.  Load windows share one op counter, so every add
     names a fresh oid. *)
  let opk = ref 0 in
  List.iter
    (function
      | Gen.Load { at; until; every } ->
          Engine.spawn eng ~name:(Printf.sprintf "scn-load-%.0f" at) (fun () ->
              Engine.sleep eng at;
              while Engine.now eng < until do
                let k = !opk in
                incr opk;
                (* Two adds then a remove of the elder: every op is
                   effective when it lands, so the ledger grows by one
                   per ack. *)
                count
                  (if k mod 3 = 2 then
                     Client.dir_remove mut_client sref (Oid.make ~num:(k - 2) ~home:nodes.(0))
                   else Client.dir_add mut_client sref (Oid.make ~num:k ~home:nodes.(0)));
                Engine.sleep eng every
              done)
      | _ -> ())
    plan.Gen.ops;
  (* Storm clients draw their retry jitter from split streams of an rng
     seeded with the plan seed, so the whole backoff schedule replays. *)
  let storm_rng = Rng.create plan.Gen.seed in
  (* Fault schedule, through the Fault scheduled API. *)
  List.iter
    (function
      | Gen.Crash { node; at; recover_at } -> Fault.stop_node fault ~at ~recover_at nodes.(node)
      | Gen.Cut { a; b; at; heal_at } ->
          Engine.schedule eng ~after:at (fun () -> Fault.cut_link fault nodes.(a) nodes.(b));
          Engine.schedule eng ~after:heal_at (fun () ->
              Fault.heal_link fault nodes.(a) nodes.(b))
      | Gen.Partition { groups; at; heal_at } ->
          Fault.schedule_partition fault ~at ~heal_at
            (List.map (List.map (fun ix -> nodes.(ix))) groups)
      | Gen.Isolate { node; at; heal_at } -> Fault.isolate_node fault ~at ~heal_at nodes.(node)
      | Gen.Herd { at; clients; burst } ->
          (* A load spike, not a topology fault: [clients] fibers wake
             together and each fires [burst] back-to-back size queries.
             Every query completes once links heal, so the run still
             quiesces. *)
          for h = 0 to clients - 1 do
            Engine.spawn eng ~name:(Printf.sprintf "vopr-herd.%d" h) (fun () ->
                let now = Engine.now eng in
                if at > now then Engine.sleep eng (at -. now);
                for _ = 1 to burst do
                  ignore (Weak_set.size (Lazy.force bg_handle))
                done)
          done
      | Gen.Storm { at; until; clients; every } ->
          (* [clients] independent retry-budgeted clients hammer the
             coordinator in lockstep.  Every client's first op is a
             mutation, so the opening burst drives the admission queue
             past the Mutate threshold and sheds mutations — the
             clean-no-op invariant the planted shed bug violates; after
             that, mostly reads with a mutation every fifth op keep the
             queue saturated while the budgets drain, back off and
             refill. *)
          for k = 0 to clients - 1 do
            let retry =
              {
                Client.retry_rng = Rng.split storm_rng;
                retry_burst = 10;
                retry_refill = 0.5;
                retry_backoff = 0.1;
                retry_backoff_max = 5.0;
                retry_attempts = 6;
              }
            in
            let sc = Client.create ~retry rpc nodes.(n - 1) in
            Engine.spawn eng ~name:(Printf.sprintf "scn-storm-%.0f-%d" at k) (fun () ->
                Engine.sleep eng at;
                let i = ref 0 in
                while Engine.now eng < until do
                  count
                    (if !i mod 5 = 0 then
                       (* Storm oids live in their own namespace so they
                          never collide with the load's. *)
                       Client.dir_add sc sref
                         (Oid.make ~num:(1_000_000 + (k * 10_000) + !i) ~home:nodes.(0))
                     else
                       Result.map
                         (fun (_ : Version.t * Oid.t list) -> ())
                         (Client.dir_read sc ~from:nodes.(0) ~set_id));
                  incr i;
                  Engine.sleep eng every
                done)
          done)
    plan.Gen.faults;
  (* Open-loop background arrivals: size queries on their own clock,
     dealt round-robin across [ol_clients] fibers.  The tick stream is
     the fourth split of the plan seed — independent of the config,
     workload and fault streams, so a bundle replay reproduces it
     exactly without storing the ticks. *)
  (match c.Gen.open_loop with
  | None -> ()
  | Some { Gen.ol_rate; ol_clients; ol_bursty } ->
      let olrng =
        let root = Rng.create plan.Gen.seed in
        let (_ : Rng.t) = Rng.split root in
        let (_ : Rng.t) = Rng.split root in
        let (_ : Rng.t) = Rng.split root in
        Rng.split root
      in
      let arrival =
        if ol_bursty then Arrival.Bursty { rate = ol_rate; burst_mean = 4.0 }
        else Arrival.Poisson { rate = ol_rate }
      in
      (* budget = workload horizon + 60 by construction: stop arrivals
         at the horizon so the tail drains well inside the budget. *)
      let until = Float.max 1.0 (plan.Gen.budget -. 60.0) in
      let ticks = Arrival.ticks arrival ~rng:olrng ~until in
      let qs = Array.make ol_clients [] in
      List.iteri (fun i t -> qs.(i mod ol_clients) <- t :: qs.(i mod ol_clients)) ticks;
      Array.iteri
        (fun i q ->
          let schedule = List.rev q in
          if schedule <> [] then
            Engine.spawn eng ~name:(Printf.sprintf "vopr-openloop.%d" i) (fun () ->
                List.iter
                  (fun tick ->
                    let now = Engine.now eng in
                    if tick > now then Engine.sleep eng (tick -. now);
                    ignore (Weak_set.size (Lazy.force bg_handle)))
                  schedule))
        qs);
  (* Mutator driver: add/remove/size at their scheduled times.  When the
     plan contains an immutable iteration, every mutation must honour the
     write lock (§3.1) — the handle's semantics enforces that. *)
  let mutator_ops =
    List.filter
      (function Gen.Add _ | Gen.Remove _ | Gen.Size _ -> true | _ -> false)
      plan.Gen.ops
  in
  let has_immutable =
    List.exists
      (function Gen.Iterate { semantics = "immutable"; _ } -> true | _ -> false)
      plan.Gen.ops
  in
  let mutator_sem = if has_immutable then Semantics.immutable else Semantics.optimistic in
  if mutator_ops <> [] then begin
    let handle = Weak_set.make mut_client sref mutator_sem in
    Engine.spawn eng ~name:"vopr-mutator" (fun () ->
        List.iter
          (fun op ->
            let at = Gen.op_time op in
            let now = Engine.now eng in
            if at > now then Engine.sleep eng (at -. now);
            match op with
            | Gen.Add _ ->
                let oid = fresh_member () in
                ignore (Weak_set.add handle oid)
            | Gen.Remove _ -> (
                let truth = Node_server.directory_truth servers.(0) ~set_id in
                match Oid.Set.min_elt_opt (Directory.members truth) with
                | Some victim -> ignore (Weak_set.remove handle victim)
                | None -> ())
            | Gen.Size _ -> ignore (Weak_set.size handle)
            | _ -> ())
          mutator_ops)
  end;
  (* Iteration driver: every Iterate runs sequentially, instrumented,
     with an online conformance monitor attached for its duration. *)
  let iter_ops =
    List.filter (function Gen.Iterate _ -> true | _ -> false) plan.Gen.ops
  in
  let records = ref [] in
  if iter_ops <> [] then
    Engine.spawn eng ~name:"vopr-iter" (fun () ->
        List.iteri
          (fun i op ->
            match op with
            | Gen.Iterate { at; semantics; think; limit; repeat } ->
                let now = Engine.now eng in
                if at > now then Engine.sleep eng (at -. now);
                let sem = List.assoc semantics Semantics.all in
                let spec = spec_for plan sem in
                (* [repeat] > 1 re-runs the same iteration back to back:
                   on cache-enabled plans the later passes read leased
                   state warm, which is the path the cache oracle wants
                   to see exercised under faults. *)
                for rep = 1 to max 1 repeat do
                  if rep > 1 then Engine.sleep eng (Float.max 1.0 think);
                  let online = Monitor_online.create ~bus ~set_id spec in
                  Bus.attach bus ~name:"vopr-online" (Monitor_online.sink online);
                  let r =
                    {
                      ir_index = i;
                      ir_semantics = semantics;
                      ir_spec = spec;
                      ir_online = online;
                      ir_outcome = `Unfinished;
                      ir_computation = None;
                      ir_finished = false;
                    }
                  in
                  records := r :: !records;
                  let set =
                    Weak_set.make ~heal_signal:(Fault.signal fault)
                      ~coordinator_server:servers.(0) client sref sem
                  in
                  let iter, inst = Weak_set.elements ~instrument:true set in
                  r.ir_computation <- Option.map Instrument.computation inst;
                  let rec loop yields =
                    if yields >= limit then `Limit
                    else
                      match Iterator.next iter with
                      | Iterator.Yield _ ->
                          if think > 0.0 then Engine.sleep eng think;
                          loop (yields + 1)
                      | Iterator.Done -> `Done
                      | Iterator.Failed e -> `Failed (Client.error_to_string e)
                  in
                  let outcome = loop 0 in
                  Iterator.close iter;
                  Bus.detach bus ~name:"vopr-online";
                  let (_ : Figures.verdict) =
                    Monitor_online.finish online ~time:(Engine.now eng)
                  in
                  r.ir_finished <- true;
                  r.ir_outcome <- outcome
                done
            | _ -> ())
          iter_ops)
  ;
  (* Liveness probes, then one heal of every fault [heal_margin] before
     the budget and a final probe in the quiet window it leaves. *)
  let probes = ref [] in
  if c.Gen.group then begin
    let majority = (List.length member_nodes / 2) + 1 in
    let quorum_connected () =
      let up = List.filter (Topology.node_up topo) member_nodes in
      List.exists
        (fun i ->
          let reaches j = Nodeid.equal i j || Topology.reachable topo i j in
          List.length (List.filter reaches up) >= majority)
        up
    in
    let probe at =
      Engine.schedule eng ~after:at (fun () ->
          let ok = Group.stable groups || not (quorum_connected ()) in
          probes := (at, ok) :: !probes)
    in
    List.iter (function Gen.Probe { at } -> probe at | _ -> ()) plan.Gen.ops;
    Engine.schedule eng ~after:(plan.Gen.budget -. heal_margin) (fun () ->
        Fault.heal_all fault;
        List.iter
          (fun node -> if not (Topology.node_up topo node) then Fault.recover_node fault node)
          member_nodes);
    probe (plan.Gen.budget -. 2.0)
  end;
  fun () ->
  (* Collected once the engine stops.  Iterations still open (stuck or
     cut off by the step cap): close the books so the oracle can judge
     what was recorded. *)
  List.iter
    (fun r ->
      if not r.ir_finished then begin
        let (_ : Figures.verdict) = Monitor_online.finish r.ir_online ~time:(Engine.now eng) in
        r.ir_finished <- true
      end)
    !records;
  let iterations =
    List.rev_map
      (fun r ->
        {
          Oracle.index = r.ir_index;
          semantics = r.ir_semantics;
          faulty = plan.Gen.faults <> [];
          spec = r.ir_spec;
          outcome = r.ir_outcome;
          computation =
            (match r.ir_computation with
            | Some comp -> comp
            | None -> Weakset_spec.Computation.create ());
          online_violations = Monitor_online.violations r.ir_online;
        })
      !records
  in
  let cache =
    if not c.Gen.cache then None
    else
      (* How long an Inval can legitimately be in flight: the topology
         diameter's worth of link latency with headroom, plus a constant
         for service time on either end. *)
      let hops =
        match c.Gen.shape with Gen.Clique -> 1 | Gen.Star -> 2 | Gen.Line -> n - 1
      in
      let inval_grace = (float_of_int hops *. c.Gen.latency *. 1.5) +. 1.0 in
      let fault_windows =
        List.filter_map
          (function
            | Gen.Crash { at; recover_at; _ } -> Some (at, recover_at)
            | Gen.Cut { at; heal_at; _ } -> Some (at, heal_at)
            | Gen.Partition { at; heal_at; _ } | Gen.Isolate { at; heal_at; _ } ->
                Some (at, heal_at)
            (* Herds and storms delay invals by queueing, they never
               sever links — the stale-beyond-lease rule gets no grace
               window for them. *)
            | Gen.Herd _ | Gen.Storm _ -> None)
          plan.Gen.faults
      in
      Some
        {
          Oracle.hits = List.rev !cache_hits;
          mutations = List.rev !mutation_log;
          lease_ttl = c.Gen.lease_ttl;
          inval_grace;
          fault_windows;
        }
  in
  let r_ledger =
    List.map
      (fun e -> (e.Group.Ledger.l_opnum, e.Group.Ledger.l_op))
      (Group.Ledger.entries ledger)
  in
  let repl =
    if not c.Gen.group then None
    else
      let up g = Topology.node_up topo (Group.me g) in
      let survivors = List.filter up groups in
      (* Shed safety: each survivor's directory next to the fold of its
         ledger-justified committed entries.  A shed mutation that was
         not a clean no-op put an effect in the directory (and the
         directory's own log) that no ledger-acked commit justifies, so
         the two memberships part ways — judged per node, so commit
         propagation lag between nodes cannot fake a divergence. *)
      let r_dir_vs_log =
        List.filter_map
          (fun (ix, g) ->
            if not (up g) then None
            else
              let dir_members =
                Directory.members (Node_server.directory_truth servers.(ix) ~set_id)
                |> Oid.Set.elements
                |> List.map (Format.asprintf "%a" Oid.pp)
              in
              let justified =
                List.filter (fun entry -> List.mem entry r_ledger) (Group.committed_log g)
              in
              let logged = fold_members (List.map snd justified) in
              Some (Nodeid.to_int (Group.me g), dir_members, logged))
          (List.combine members groups)
      in
      Some
        {
          Oracle.r_ledger;
          r_final_logs =
            List.map (fun g -> (Nodeid.to_int (Group.me g), Group.committed_log g)) survivors;
          r_probes = List.rev !probes;
          r_dir_vs_log;
        }
  in
  {
    w_flight = flight;
    w_iterations = iterations;
    w_cache = cache;
    w_repl = repl;
    w_committed = List.length r_ledger;
    w_ops_ok = !ops_ok;
    w_ops_failed = !ops_failed;
  }

(* Arms [mutation] for the whole run, attaches the digest sink and then
   the accounting sink before the world exists, and judges the world's
   evidence with the engine-level facts (crashes, parked fibers,
   unmatched RPCs). *)
let execute ?(step_cap = default_step_cap) ?mutation plan =
  Mutation.with_armed mutation @@ fun () ->
  let eng = Engine.create ~seed:plan.Gen.seed () in
  let bus = Engine.bus eng in
  let digest = Digest.create () in
  Bus.attach bus ~name:"vopr-digest" (Digest.sink digest);
  let rpc_calls = ref 0 and rpc_dones = ref 0 in
  (* Track which fibers are still alive, by name, so a leak verdict can
     say who leaked.  A fiber is alive from Fiber_spawn until a Run_end
     whose park is Park_done/Park_crash. *)
  let fiber_state : (int, string) Hashtbl.t = Hashtbl.create 32 in
  Bus.attach bus ~name:"vopr-accounting" (fun ev ->
      match ev.Event.kind with
      | Event.Rpc_call _ -> incr rpc_calls
      | Event.Rpc_done _ -> incr rpc_dones
      | Event.Fiber_spawn { fid; fiber } -> Hashtbl.replace fiber_state fid fiber
      | Event.Run_end { fid; park = Event.Park_done | Event.Park_crash; _ } ->
          Hashtbl.remove fiber_state fid
      | _ -> ());
  let collect = build plan eng in
  let steps = Engine.run ~max_steps:step_cap eng in
  let w = collect () in
  let engine_crashes =
    List.map
      (fun c -> (c.Engine.crash_fiber, Printexc.to_string c.Engine.crash_exn))
      (Engine.crashes eng)
  in
  let parked_fibers =
    if Engine.live_fibers eng = 0 then []
    else Hashtbl.fold (fun _ name acc -> name :: acc) fiber_state [] |> List.sort compare
  in
  let issues =
    Oracle.judge
      {
        Oracle.iterations = w.w_iterations;
        engine_crashes;
        parked_fibers;
        steps;
        step_cap;
        unmatched_rpcs = !rpc_calls - !rpc_dones;
        cache = w.w_cache;
        repl = w.w_repl;
      }
  in
  let digest = Digest.value digest and events = Digest.count digest in
  (* One post-run trigger for the whole verdict (the first issue names
     the incident); mid-run violations already dumped with hot rings, and
     the debounce keeps this from double-dumping the same incident. *)
  Option.iter
    (fun flight ->
      match issues with
      | [] -> ()
      | issue :: _ ->
          Flight.trigger flight ~time:(Engine.now eng)
            (Flight.Oracle_verdict
               { category = Oracle.category issue; detail = Oracle.describe issue }))
    w.w_flight;
  {
    plan;
    digest;
    events;
    steps;
    issues;
    iterations = w.w_iterations;
    blackbox = (match w.w_flight with Some f -> Flight.dumps f | None -> []);
    mutation;
    step_cap;
    committed = w.w_committed;
    ops_ok = w.w_ops_ok;
    ops_failed = w.w_ops_failed;
  }

let sweep ?step_cap ?mutation ?(progress = fun _ _ -> ()) seeds =
  List.map
    (fun seed ->
      let r = execute ?step_cap ?mutation (Gen.generate seed) in
      progress seed r;
      (seed, r))
    seeds

(* ------------------------------------------------------------------ *)
(* Repro bundles                                                      *)
(* ------------------------------------------------------------------ *)

type bundle = {
  b_plan : Gen.plan;
  b_mutation : Mutation.t option;
  b_step_cap : int;
  b_digest : string;
  b_events : int;
  b_issues : Oracle.issue list;
  b_blackbox : string list;
}

let bundle_of_result (r : result) =
  {
    b_plan = r.plan;
    b_mutation = r.mutation;
    b_step_cap = r.step_cap;
    b_digest = r.digest;
    b_events = r.events;
    b_issues = r.issues;
    b_blackbox = List.map (fun d -> d.Flight.d_json) r.blackbox;
  }

let json_str s = Printf.sprintf {|"%s"|} (Event.json_escape s)

(* Dumps are embedded as JSON *strings* (escaped), not nested documents,
   so a bundle round-trips them byte-exactly through our writer-less
   JSON reader. *)
let bundle_to_json b =
  Printf.sprintf
    {|{"version":2,"mutation":%s,"step_cap":%d,"plan":%s,"digest":"%s","events":%d,"issues":[%s],"blackbox":[%s]}|}
    (match b.b_mutation with None -> "null" | Some m -> json_str (Mutation.to_string m))
    b.b_step_cap (Gen.plan_to_json b.b_plan) b.b_digest b.b_events
    (String.concat "," (List.map Oracle.issue_to_json b.b_issues))
    (String.concat "," (List.map json_str b.b_blackbox))

let ( let* ) = Result.bind

let map_result f l =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) l
  |> Result.map List.rev

let bundle_of_string s =
  match Json.of_string_opt s with
  | None -> Error "malformed JSON"
  | Some j ->
      let field name conv =
        match Option.bind (Json.member name j) conv with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "missing field %S" name)
      in
      let* version = field "version" Json.to_int in
      let* () =
        if version = 2 then Ok ()
        else Error (Printf.sprintf "unsupported bundle version %d" version)
      in
      (* A malformed plan is refused here, before a replay could
         convict the program of what the plan got wrong. *)
      let* plan = Result.bind (field "plan" Option.some) Gen.plan_of_json in
      let* () = match validate plan with () -> Ok () | exception Invalid_argument m -> Error m in
      let* mutation =
        match Json.member "mutation" j with
        | Some Json.Null -> Ok None
        | Some (Json.Str name) -> (
            match Mutation.of_string name with
            | Some m -> Ok (Some m)
            | None -> Error (Printf.sprintf "unknown mutation %S" name))
        | _ -> Error "missing field \"mutation\""
      in
      let* step_cap = field "step_cap" Json.to_int in
      let* digest = field "digest" Json.to_string in
      let* events = field "events" Json.to_int in
      let* issues = Result.bind (field "issues" Json.to_list) (map_result Oracle.issue_of_json) in
      let* blackbox = field "blackbox" Json.to_list in
      Ok
        {
          b_plan = plan;
          b_mutation = mutation;
          b_step_cap = step_cap;
          b_digest = digest;
          b_events = events;
          b_issues = issues;
          b_blackbox = List.filter_map Json.to_string blackbox;
        }

let write_bundle ~path b =
  let oc = open_out path in
  output_string oc (bundle_to_json b);
  output_char oc '\n';
  close_out oc

let read_bundle ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | s -> bundle_of_string s

type replay_outcome =
  | Reproduced of bundle
  | Digest_mismatch of bundle
  | Verdict_mismatch of bundle

(* Re-record the bundle's plan under its own mutation and step cap, so a
   replay in a fresh process needs nothing but the bundle. *)
let replay b =
  let got = bundle_of_result (execute ~step_cap:b.b_step_cap ?mutation:b.b_mutation b.b_plan) in
  if got.b_digest <> b.b_digest || got.b_events <> b.b_events then Digest_mismatch got
  else
    let matches =
      match (b.b_issues, got.b_issues) with
      | [], [] -> true
      | recorded, now -> Oracle.same_failure recorded now
    in
    if matches then Reproduced got else Verdict_mismatch got
