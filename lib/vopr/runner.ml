module Engine = Weakset_sim.Engine
module Rng = Weakset_sim.Rng
module Arrival = Weakset_load.Arrival
module Topology = Weakset_net.Topology
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
}

let set_id = 1

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
  if n < 4 then invalid_arg "Vopr.Runner: config.nodes must be >= 4";
  List.iter
    (fun ix ->
      if ix < 1 || ix > n - 2 then
        invalid_arg (Printf.sprintf "Vopr.Runner: replica index %d is not a home node" ix))
    c.Gen.replica_ixs;
  List.iter
    (function
      | Gen.Iterate { semantics; _ } when not (List.mem_assoc semantics Semantics.all) ->
          invalid_arg (Printf.sprintf "Vopr.Runner: unknown semantics %S" semantics)
      | _ -> ())
    plan.Gen.ops;
  List.iter
    (function
      | Gen.Crash { node; _ } ->
          if node < 1 || node > n - 2 then
            invalid_arg (Printf.sprintf "Vopr.Runner: crash target %d is not a home node" node)
      | Gen.Cut { a; b; _ } ->
          if not (link_exists c.Gen.shape n a b) then
            invalid_arg (Printf.sprintf "Vopr.Runner: no link %d-%d in this topology" a b)
      | Gen.Partition { groups; _ } ->
          List.iter
            (List.iter (fun ix ->
                 if ix < 0 || ix >= n then
                   invalid_arg (Printf.sprintf "Vopr.Runner: partition node %d out of range" ix)))
            groups
      | Gen.Herd { clients; burst; _ } ->
          if clients < 1 || burst < 1 then
            invalid_arg "Vopr.Runner: herd clients and burst must be >= 1")
    plan.Gen.faults;
  (match c.Gen.open_loop with
  | Some { Gen.ol_rate; ol_clients; _ } ->
      if ol_rate <= 0.0 || ol_clients < 1 then
        invalid_arg "Vopr.Runner: open_loop rate must be positive and clients >= 1"
  | None -> ())

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

(* Builds [plan]'s world on [eng] and returns the post-run collector
   (see {!Harness.run}); the collected world is the flight recorder, the
   final virtual time and the judged iterations. *)
let build plan eng =
  validate plan;
  let c = plan.Gen.config in
  let n = c.Gen.nodes in
  let bus = Engine.bus eng in
  (* Always-on black box: triggers itself on spec violations and node
     crashes during the run; the oracle adds a post-run verdict trigger.
     Ring capacity is modest — dumps ride inside repro bundles. *)
  let flight = Flight.create ~capacity:256 ~debounce:100.0 bus in
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
  let servers =
    Array.map (fun node -> Node_server.create ~lease_ttl:c.Gen.lease_ttl rpc node) nodes
  in
  let fault = Fault.create eng topo in
  (* Ghost-copy policy unconditionally: it only defers removals while
     grow-only iterators are registered, and without it a grow-only run
     concurrent with removals violates its own type constraint — an
     environment bug, not an implementation bug. *)
  Node_server.host_directory servers.(0) ~set_id
    ~policy:Node_server.Defer_removes_while_iterating;
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
  (* Fault schedule, through the Fault scheduled API (the code path
     hand-written scenarios use). *)
  List.iter
    (function
      | Gen.Crash { node; at; recover_at } ->
          Fault.schedule_crash fault ~at nodes.(node);
          Fault.schedule_recover fault ~at:recover_at nodes.(node)
      | Gen.Cut { a; b; at; heal_at } ->
          Engine.schedule eng ~after:at (fun () -> Fault.cut_link fault nodes.(a) nodes.(b));
          Engine.schedule eng ~after:heal_at (fun () ->
              Fault.heal_link fault nodes.(a) nodes.(b))
      | Gen.Partition { groups; at; heal_at } ->
          Fault.schedule_partition fault ~at ~heal_at
            (List.map (List.map (fun ix -> nodes.(ix))) groups)
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
    List.filter (function Gen.Iterate _ -> false | _ -> true) plan.Gen.ops
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
            | Gen.Iterate _ -> ())
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
            | Gen.Partition { at; heal_at; _ } -> Some (at, heal_at)
            (* A herd delays invals by queueing, it never severs links —
               the stale-beyond-lease rule gets no grace window for it. *)
            | Gen.Herd _ -> None)
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
  (* Random VOPR plans do not deploy a replication group; the
     table-driven cluster scenarios (Scenario) build that evidence. *)
  ((flight, Engine.now eng, iterations), { Harness.iterations; cache; repl = None })

let execute ?(step_cap = Harness.default_step_cap) ?mutation plan =
  let judged = Harness.run ~seed:plan.Gen.seed ~step_cap ~mutation (build plan) in
  let flight, time, iterations = judged.world in
  (* One post-run trigger for the whole verdict (the first issue names
     the incident); mid-run violations already dumped with hot rings, and
     the debounce keeps this from double-dumping the same incident. *)
  (match judged.issues with
  | [] -> ()
  | issue :: _ ->
      Flight.trigger flight ~time
        (Flight.Oracle_verdict
           { category = Oracle.category issue; detail = Oracle.describe issue }));
  {
    plan;
    digest = judged.digest;
    events = judged.events;
    steps = judged.steps;
    issues = judged.issues;
    iterations;
    blackbox = Flight.dumps flight;
    mutation;
    step_cap;
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

type subject = Plan of Gen.plan | Row of string

type bundle = {
  b_subject : subject;
  b_mutation : Mutation.t option;
  b_step_cap : int;
  b_digest : string;
  b_events : int;
  b_issues : Oracle.issue list;
  b_blackbox : string list;
}

let bundle_of_result (r : result) =
  {
    b_subject = Plan r.plan;
    b_mutation = r.mutation;
    b_step_cap = r.step_cap;
    b_digest = r.digest;
    b_events = r.events;
    b_issues = r.issues;
    b_blackbox = List.map (fun d -> d.Flight.d_json) r.blackbox;
  }

let bundle_of_outcome (o : Scenario.outcome) =
  {
    b_subject = Row o.o_name;
    b_mutation = o.o_mutation;
    b_step_cap = o.o_step_cap;
    b_digest = o.o_digest;
    b_events = o.o_events;
    b_issues = o.o_issues;
    b_blackbox = [];
  }

let json_str s = Printf.sprintf {|"%s"|} (Event.json_escape s)

(* Dumps are embedded as JSON *strings* (escaped), not nested documents,
   so a bundle round-trips them byte-exactly through our writer-less
   JSON reader. *)
let bundle_to_json b =
  Printf.sprintf
    {|{"version":2,"mutation":%s,"step_cap":%d,%s,"digest":"%s","events":%d,"issues":[%s],"blackbox":[%s]}|}
    (match b.b_mutation with None -> "null" | Some m -> json_str (Mutation.to_string m))
    b.b_step_cap
    (match b.b_subject with
    | Plan p -> {|"plan":|} ^ Gen.plan_to_json p
    | Row name -> {|"row":|} ^ json_str name)
    b.b_digest b.b_events
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
      let* subject =
        match (Json.member "plan" j, Option.bind (Json.member "row" j) Json.to_string) with
        | Some p, None -> Result.map (fun p -> Plan p) (Gen.plan_of_json p)
        | None, Some name when Option.is_some (Scenario.find name) -> Ok (Row name)
        | None, Some name -> Error (Printf.sprintf "unknown scenario row %S" name)
        | _ -> Error "expected exactly one of \"plan\" and \"row\""
      in
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
          b_subject = subject;
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

(* Re-record the bundle's subject under its own mutation and step cap,
   so a replay in a fresh process needs nothing but the bundle. *)
let rerecord b =
  let step_cap = b.b_step_cap and mutation = b.b_mutation in
  match b.b_subject with
  | Plan plan -> bundle_of_result (execute ~step_cap ?mutation plan)
  | Row name -> (
      match Scenario.find name with
      | Some row -> bundle_of_outcome (Scenario.run ~step_cap ?mutation row)
      | None -> invalid_arg (Printf.sprintf "Vopr.Runner.replay: unknown scenario row %S" name))

let replay b =
  let got = rerecord b in
  if got.b_digest <> b.b_digest || got.b_events <> b.b_events then Digest_mismatch got
  else
    let matches =
      match (b.b_issues, got.b_issues) with
      | [], [] -> true
      | recorded, now -> Oracle.same_failure recorded now
    in
    if matches then Reproduced got else Verdict_mismatch got
