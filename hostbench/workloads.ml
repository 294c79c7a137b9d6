(* The three workloads.  A round is a set-up (building worlds or plans),
   timed apart, followed by the timed body.  Every body is a closed loop
   with one client: the next call into the system is made only when the
   previous one has returned. *)

open Weakset_sim
open Weakset_net
open Weakset_store
open Weakset_core
open Weakset_vopr
module Scn = Bench_lib.Scenarios
module Prefetch = Weakset_dynamic.Prefetch
module Figures = Weakset_spec.Figures

type metric = string * float * string (* name, value, unit *)

type outcome = {
  ops : int;  (** ops completed *)
  attempted : int;
  failures : (int * string) list;  (** failed ops, with a line naming them *)
  body_s : float;  (** host seconds of the timed calls *)
  words : float;  (** words those calls allocated *)
  fingerprint : string list;  (** every simulated output; must repeat exactly *)
  sim : metric list;  (** simulated end-to-end metrics *)
  layers : metric list;  (** per-layer numbers measured at call level *)
  bus_events : int;  (** events published on the bench-owned buses *)
}

type t = {
  name : string;
  setup : seed:int -> unit -> Measure.Samples.t -> outcome;
      (** [setup ~seed ()] builds a round's inputs and returns the body, to run once;
          every round of a run builds the same inputs *)
  extras : seed:int -> outcome -> metric list;
      (** per-layer numbers that need runs of their own, on the inputs of
          [seed] and the round that ran them (traced run only) *)
  sizes : seed:int -> outcome -> Probes.sizes;  (** the layer probes' inputs *)
}

let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let isum f l = List.fold_left (fun a x -> a + f x) 0 l

let find name (o : outcome) =
  let _, v, _ = List.find (fun (n, _, _) -> n = name) o.layers in
  v

(* ------------------------------------------------------------------ *)
(* One measured iteration in a bench-owned world                       *)
(* ------------------------------------------------------------------ *)

(* What driving one client fiber to completion cost the engine. *)
type cost = {
  sent : int;  (** messages sent *)
  delivered : int;
  events : int;  (** engine events processed *)
  host_s : float;  (** host time inside the engine *)
  words : float;
  seq : int;  (** events published on the world's bus so far *)
}

type iter_run = {
  name : string;
  yielded : Oid.t list;  (** newest first *)
  ended : string;  (** "done", "failed: ...", or "deadline" *)
  first_at : float;  (** virtual time to first yield (nan if none) *)
  total : float;  (** virtual time to termination (nan if none) *)
  cost : cost;
  inst : Instrument.t option;
}

let deadline = 50_000.0

(* The engine advances in fixed horizons until the client fiber has
   closed its iterator, so background fibers (the mutator) stop costing
   host time once the measured calls are over.  Stopping at a horizon
   does not reorder events: the simulation is the one a single
   [Engine.run] would give. *)
let run_until_done eng finished =
  let steps = ref 0 and horizon = ref 0.0 in
  while (not !finished) && !horizon < deadline do
    horizon := !horizon +. 100.0;
    steps := !steps + Engine.run ~until:!horizon eng
  done;
  (match Engine.crashes eng with
  | [] -> ()
  | c :: _ ->
      failwith
        (Printf.sprintf "fiber %s crashed: %s" c.Engine.crash_fiber
           (Printexc.to_string c.Engine.crash_exn)));
  !steps

(* Run the client fiber [body] to completion in [w]'s engine. *)
let drive (w : Scn.world) body =
  let finished = ref false in
  Engine.spawn w.eng ~name:"measured-query" (fun () ->
      body ();
      finished := true);
  let s0 = Rpc.stats w.rpc in
  let events, host_s, words =
    Measure.measure (fun () -> Trace.with_span "engine.run" (fun () -> run_until_done w.eng finished))
  in
  let s1 = Rpc.stats w.rpc in
  {
    sent = s1.Netstat.sent - s0.Netstat.sent;
    delivered = s1.Netstat.delivered - s0.Netstat.delivered;
    events;
    host_s;
    words;
    seq = Weakset_obs.Bus.seq (Engine.bus w.eng);
  }

(* Time one blocking call of the client fiber into [samples] (ms). *)
let timed_next samples span f =
  let h0 = Measure.now () in
  let r = Trace.with_span span f in
  (r, fun () -> Measure.Samples.add samples ((Measure.now () -. h0) *. 1e3))

(* Iterate [w]'s set once under [sem] with think time 1.0 between
   invocations, timing every [Iterator.next] that yields. *)
let iterate ?(instrument = false) ~samples (w : Scn.world) (name, sem) =
  let set =
    Weak_set.make ~heal_signal:(Fault.signal w.fault) ~coordinator_server:w.servers.(0) w.client
      w.sref sem
  in
  let yielded = ref [] and ended = ref "deadline" and inst = ref None in
  let first_at = ref nan and total = ref nan in
  let cost =
    drive w (fun () ->
        let t0 = Engine.now w.eng in
        let iter, i =
          Trace.with_span "weak_set.elements" (fun () -> Weak_set.elements ~instrument set)
        in
        inst := i;
        let rec loop () =
          match timed_next samples "iterator.next" (fun () -> Iterator.next iter) with
          | Iterator.Yield (oid, _), record ->
              record ();
              if !yielded = [] then first_at := Engine.now w.eng -. t0;
              yielded := oid :: !yielded;
              Engine.sleep w.eng 1.0;
              loop ()
          | Iterator.Done, _ ->
              ended := "done";
              total := Engine.now w.eng -. t0
          | Iterator.Failed e, _ ->
              ended := "failed: " ^ Client.error_to_string e;
              total := Engine.now w.eng -. t0
        in
        loop ();
        Iterator.close iter)
  in
  { name; yielded = !yielded; ended = !ended; first_at = !first_at; total = !total; cost; inst = !inst }

(* Drain a closest-first prefetch (parallelism 4), timing every
   [Prefetch.next] that yields. *)
let prefetch ~samples (w : Scn.world) =
  let yielded = ref [] and stats = ref None in
  let cost =
    drive w (fun () ->
        let p =
          Trace.with_span "prefetch.start" (fun () -> Prefetch.start ~parallelism:4 w.client w.sref)
        in
        let rec loop () =
          match timed_next samples "prefetch.next" (fun () -> Prefetch.next p) with
          | Some (oid, _), record ->
              record ();
              yielded := oid :: !yielded;
              loop ()
          | None, _ -> ()
        in
        loop ();
        Prefetch.close p;
        stats := Some (Prefetch.stats p))
  in
  let since_start f =
    match !stats with
    | Some s -> Option.fold ~none:nan ~some:(fun t -> t -. s.Prefetch.started_at) (f s)
    | None -> nan
  in
  let ended =
    match !stats with
    | Some s when s.Prefetch.open_failed -> "failed: membership read"
    | Some s when s.Prefetch.missed > 0 -> Printf.sprintf "failed: %d members missed" s.Prefetch.missed
    | Some _ -> "done"
    | None -> "deadline"
  in
  {
    name = "prefetch";
    yielded = !yielded;
    ended;
    first_at = since_start (fun s -> s.Prefetch.first_result_at);
    total = since_start (fun s -> s.Prefetch.finished_at);
    cost;
    inst = None;
  }

(* Failures of an iteration that must yield every member of [expected]
   exactly once and end Done, each naming the op. *)
let exact_once expected r =
  let counts = Hashtbl.create 1024 in
  List.iter
    (fun o -> Hashtbl.replace counts o (1 + Option.value ~default:0 (Hashtbl.find_opt counts o)))
    r.yielded;
  let what = "iterate-quiet " ^ r.name in
  let wrong =
    Oid.Set.fold
      (fun o acc ->
        match Hashtbl.find_opt counts o with
        | Some 1 -> acc
        | c ->
            Printf.sprintf "%s: member %s yielded %d times" what (Oid.to_string o)
              (Option.value ~default:0 c)
            :: acc)
      expected []
    @ Hashtbl.fold
        (fun o _ acc ->
          if Oid.Set.mem o expected then acc
          else Printf.sprintf "%s: non-member %s yielded" what (Oid.to_string o) :: acc)
        counts []
  in
  List.map (fun line -> (1, line)) wrong
  @ if r.ended = "done" then [] else [ (1, Printf.sprintf "%s: ended %s" what r.ended) ]

let fingerprint r =
  Printf.sprintf "%s yields=%d first=%h total=%h sent=%d delivered=%d events=%d ended=%s" r.name
    (List.length r.yielded) r.first_at r.total r.cost.sent r.cost.delivered r.cost.events r.ended

let yields rs = isum (fun r -> List.length r.yielded) rs

(* Simulated end-to-end metrics and engine-level layer numbers. *)
let sim_metrics rs =
  let ys = float (yields rs) in
  [
    ("sim_first_yield", sum (fun r -> r.first_at) rs /. float (List.length rs), "virtual");
    ("sim_time_per_op", sum (fun r -> r.total) rs /. ys, "virtual");
    ("msgs_per_op", float (isum (fun r -> r.cost.sent) rs) /. ys, "msgs");
  ]

let engine_layers rs =
  let events = isum (fun r -> r.cost.events) rs in
  [
    ("sim.events_per_op", float events /. float (yields rs), "events");
    ("sim.host_ns_per_event", sum (fun r -> r.cost.host_s) rs *. 1e9 /. float events, "ns");
    ( "net.delivered_frac",
      float (isum (fun r -> r.cost.delivered) rs) /. float (isum (fun r -> r.cost.sent) rs),
      "ratio" );
  ]

let world ~seed ~size sem =
  let w =
    Scn.clique_world ~tag:"hostbench" ~seed ~n:8 ~ghost_policy:(sem == Semantics.grow_only) ~size ()
  in
  if !Trace.on then
    Weakset_obs.Bus.attach (Engine.bus w.eng) ~name:"hostbench-slices" Trace.slice_sink;
  w

let truth (w : Scn.world) = Node_server.directory_truth w.servers.(0) ~set_id:Scn.set_id
let log_len w = Version.to_int (Directory.version (truth w))

let clique_sizes ~set_size ~log_len ~spec_events =
  let topo = Topology.create () in
  ignore (Topology.clique topo 8 ~latency:1.0);
  { Probes.topos = [ topo ]; set_size; nodes = 8; log_len; spec_events }

(* ------------------------------------------------------------------ *)
(* iterate-quiet                                                       *)
(* ------------------------------------------------------------------ *)

(* One uninstrumented iteration per design point plus one prefetch
   drain, each in a fresh fault-free world of [size] members. *)
let quiet_setup ~size ~seed () =
  let worlds = List.map (fun ns -> (ns, world ~seed ~size (snd ns))) Scn.named_semantics in
  let pw = world ~seed ~size Semantics.optimistic in
  fun samples ->
    let expected = Directory.members (truth pw) in
    let rs = List.map (fun (ns, w) -> iterate ~samples w ns) worlds @ [ prefetch ~samples pw ] in
    let failures = List.concat_map (exact_once expected) rs in
    {
      ops = yields rs;
      attempted = max (yields rs) (size * List.length rs);
      failures;
      body_s = sum (fun r -> r.cost.host_s) rs;
      words = sum (fun r -> r.cost.words) rs;
      fingerprint = List.map fingerprint rs;
      sim = sim_metrics rs;
      layers =
        engine_layers rs
        @ List.concat_map
            (fun r ->
              let layer = if r.name = "prefetch" then "dynamic.prefetch" else "core." ^ r.name in
              [
                (layer ^ ".host_ms", r.cost.host_s *. 1e3, "ms");
                (layer ^ ".alloc_words", r.cost.words, "words");
                (layer ^ ".alloc_words_per_yield", r.cost.words /. float (List.length r.yielded), "words");
              ])
            rs;
      bus_events = isum (fun r -> r.cost.seq) rs;
    }

(* Allocation per iteration between n=256 and the workload's n=1024: the
   machine-independent scaling exponent of each iterator. *)
let quiet_extras ~seed (big : outcome) =
  let small = quiet_setup ~size:256 ~seed () (Measure.Samples.create ()) in
  List.map
    (fun layer ->
      let words o = find (layer ^ ".alloc_words") o in
      (layer ^ ".alloc_slope", Measure.slope ~n0:256 ~c0:(words small) ~n1:1024 ~c1:(words big), "exponent"))
    (List.map (fun (name, _) -> "core." ^ name) Scn.named_semantics @ [ "dynamic.prefetch" ])

(* ------------------------------------------------------------------ *)
(* spec-churn                                                          *)
(* ------------------------------------------------------------------ *)

let churn_sems = [ ("optimistic", Semantics.optimistic); ("grow-only", Semantics.grow_only) ]

(* A Poisson mutator (add 0.1, remove 0.05 per time unit) writes beside
   the measured iteration. *)
let churn_world ~seed ~size sem =
  let w = world ~seed ~size sem in
  Scn.set_mutator ~via:sem w ~add_rate:0.1 ~remove_rate:0.05 ~until:deadline;
  w

let judge r sem =
  match r.inst with
  | None -> failwith "instrumented iteration recorded nothing"
  | Some inst ->
      Instrument.detach inst;
      Measure.measure (fun () ->
          Trace.with_span "instrument.check" (fun () ->
              Instrument.check inst (Semantics.window_spec_of sem)))

(* The mutation schedules every spec-churn round replays: world and
   mutator seeds [1000 * seed + k] for k below [churn_schedules].  How many
   mutations land during an iteration sets the checker's cost, which grows
   faster than linearly with it, so the workload averages over a fixed set
   of Poisson schedules rather than resting on one draw. *)
let churn_schedules = 4
let churn_seeds seed = List.init churn_schedules (fun k -> (seed * 1000) + k)

(* Per churn design point, one instrumented iteration on each schedule,
   each judged by its window spec.  An op is an element yielded and
   judged, so a violating verdict fails every element of its iteration.
   Each world and its recording are dropped once judged, so the heap
   holds one schedule's iteration at a time. *)
let churn_setup ~instrument ~size ~seed () =
  let pending =
    ref
      (List.concat_map
         (fun s -> List.map (fun ns -> (s, ns, churn_world ~seed:s ~size (snd ns))) churn_sems)
         (churn_seeds seed))
  in
  fun samples ->
    let rec go acc =
      match !pending with
      | [] -> List.rev acc
      | (s, ((_, sem) as ns), w) :: rest ->
          pending := rest;
          let r = iterate ~instrument ~samples w ns in
          let judged = if instrument then Some (judge r sem) else None in
          let states =
            Option.fold ~none:0
              ~some:(fun i -> Weakset_spec.Computation.length (Instrument.computation i))
              r.inst
          in
          go ((s, { r with inst = None }, judged, log_len w, states) :: acc)
    in
    let runs = go [] in
    let rs = List.map (fun (_, r, _, _, _) -> r) runs in
    let failures =
      List.filter_map
        (fun (s, r, judged, _, _) ->
          let bad =
            (if r.ended = "done" then [] else [ "ended " ^ r.ended ])
            @
            match judged with
            | Some (Figures.Violates _ as v, _, _) -> [ Format.asprintf "%a" Figures.pp_verdict v ]
            | _ -> []
          in
          if bad = [] then None
          else
            Some
              ( max 1 (List.length r.yielded),
                Printf.sprintf "spec-churn schedule %d %s: %s" s r.name (String.concat "; " bad) ))
        runs
    in
    let checks = List.filter_map (fun (_, r, j, _, _) -> Option.map (fun j -> (r.name, j)) j) runs in
    (* Sums over the schedules, per design point. *)
    let per_sem name f = sum f (List.filter (fun (n, _) -> n = name) checks) in
    let states = isum (fun (_, _, _, _, n) -> n) runs in
    {
      ops = yields rs;
      attempted = max (yields rs) (isum fst failures);
      failures;
      body_s = sum (fun r -> r.cost.host_s) rs +. sum (fun (_, (_, s, _)) -> s) checks;
      words = sum (fun r -> r.cost.words) rs +. sum (fun (_, (_, _, w)) -> w) checks;
      fingerprint =
        List.map
          (fun (s, r, j, _, _) ->
            Printf.sprintf "schedule %d " s
            ^ fingerprint r
            ^ Option.fold ~none:""
                ~some:(fun (v, _, _) -> Format.asprintf " verdict=%a" Figures.pp_verdict v)
                j)
          runs;
      sim = sim_metrics rs;
      layers =
        engine_layers rs
        @ List.map
            (fun (name, _) ->
              ( "spec." ^ name ^ ".host_ms",
                sum (fun r -> if r.name = name then r.cost.host_s *. 1e3 else 0.0) rs,
                "ms" ))
            churn_sems
        @ (if checks = [] then []
           else
             List.concat_map
               (fun (name, _) ->
                 [
                   ("spec." ^ name ^ ".check_s", per_sem name (fun (_, (_, s, _)) -> s), "s");
                   ("spec." ^ name ^ ".check_alloc_words", per_sem name (fun (_, (_, _, w)) -> w), "words");
                 ])
               churn_sems)
        @ [
            ("spec.states_per_op", float states /. float (yields rs), "states");
            ("store.final_log_len", float (List.fold_left (fun a (_, _, _, l, _) -> max a l) 0 runs), "ops");
          ];
      bus_events = isum (fun r -> r.cost.seq) rs;
    }

(* The directory log length spec-churn ends with on [seed]'s schedules,
   from an uninstrumented replay (recording does not change the
   simulation): the size of the directory probes on every workload. *)
let churn_log_len ~seed =
  let o = churn_setup ~instrument:false ~size:256 ~seed () (Measure.Samples.create ()) in
  int_of_float (find "store.final_log_len" o)

(* The recorder's cost (same seeded worlds and mutators, uninstrumented),
   the checker's allocation slope between n=128 and n=256, and the JSONL
   volume an attached trace writer receives per element (first schedule
   only). *)
let churn_extras ~seed (full : outcome) =
  let plain = churn_setup ~instrument:false ~size:256 ~seed () (Measure.Samples.create ()) in
  let half = churn_setup ~instrument:true ~size:128 ~seed () (Measure.Samples.create ()) in
  let check_words o = sum (fun (name, _) -> find ("spec." ^ name ^ ".check_alloc_words") o) churn_sems in
  let path = Probes.scratch_file "churn.jsonl" in
  let jsonl = Weakset_obs.Jsonl.open_file path in
  let worlds =
    List.map (fun ns -> (ns, churn_world ~seed:(List.hd (churn_seeds seed)) ~size:256 (snd ns))) churn_sems
  in
  List.iter
    (fun (_, (w : Scn.world)) ->
      Weakset_obs.Bus.attach (Engine.bus w.eng) ~name:"jsonl" (Weakset_obs.Jsonl.sink jsonl))
    worlds;
  let samples = Measure.Samples.create () in
  let traced = List.map (fun (ns, w) -> iterate ~instrument:true ~samples w ns) worlds in
  Weakset_obs.Jsonl.close jsonl;
  let bytes = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  let plain_len = find "store.final_log_len" plain and full_len = find "store.final_log_len" full in
  if plain_len <> full_len then
    failwith
      (Printf.sprintf "spec-churn final log length %g uninstrumented but %g instrumented" plain_len
         full_len);
  List.map
    (fun (name, _) ->
      let ms o = find ("spec." ^ name ^ ".host_ms") o in
      ("spec." ^ name ^ ".record_overhead_x", ms full /. ms plain, "x"))
    churn_sems
  @ [
      ("spec.check_slope", Measure.slope ~n0:128 ~c0:(check_words half) ~n1:256 ~c1:(check_words full), "exponent");
      ("obs.jsonl_bytes_per_op", float bytes /. float (yields traced), "bytes");
    ]

let spec_churn =
  {
    name = "spec-churn";
    setup = churn_setup ~instrument:true ~size:256;
    extras = churn_extras;
    sizes =
      (fun ~seed:_ o ->
        clique_sizes ~set_size:256 ~log_len:(int_of_float (find "store.final_log_len" o)) ~spec_events:true);
  }

(* ------------------------------------------------------------------ *)
(* swarm                                                               *)
(* ------------------------------------------------------------------ *)

(* The window of 128 VOPR seeds starts at [seed mod 30], so it lies in
   0..156: below 157, the first VOPR seed the oracle rejects at this
   commit (README, "Failures found at this commit"). *)
let swarm_seeds seed = List.init 128 (fun i -> Int64.of_int ((seed mod 30) + i))

(* VOPR plans [start .. start+127], executed and judged, then every row
   of the scenario table (each row runs twice and must agree byte for
   byte).  An op is one plan or one row. *)
let swarm_setup ~seed () =
  let plans = List.map (fun s -> Trace.with_span "gen.generate" (fun () -> Gen.generate s)) (swarm_seeds seed) in
  fun samples ->
    let timed name f =
      let v, dt, words = Measure.measure (fun () -> Trace.with_span name f) in
      Measure.Samples.add samples (dt *. 1e3);
      (v, dt, words)
    in
    let execs = List.map (fun p -> timed "runner.execute" (fun () -> Runner.execute p)) plans in
    let rows = List.map (fun s -> timed "scenario.run" (fun () -> Scenario.run s)) Scenario.table in
    let results = List.map (fun (r, _, _) -> r) execs and outs = List.map (fun (o, _, _) -> o) rows in
    let failures =
      List.filter_map
        (fun (r : Runner.result) ->
          if r.issues = [] then None
          else
            Some
              ( 1,
                Printf.sprintf "swarm vopr seed %Ld: %s" r.plan.Gen.seed
                  (String.concat "; " (List.map Oracle.describe r.issues)) ))
        results
      @ List.filter_map
          (fun o ->
            if Scenario.passed o then None
            else Some (1, Format.asprintf "swarm scenario %a" Scenario.pp_outcome o))
          outs
    in
    let ms l =
      let a = Array.of_list (List.map (fun (_, dt, _) -> dt *. 1e3) l) in
      Array.sort Float.compare a;
      a
    in
    let ex = ms execs and sc = ms rows in
    let _, ex_tail, _ = Option.get (Measure.tail ex) in
    let secs l = sum (fun (_, dt, _) -> dt) l in
    let steps = isum (fun (r : Runner.result) -> r.steps) results in
    let plans_n = float (List.length plans) in
    let ops_ok = isum (fun o -> o.Scenario.o_ops_ok) outs in
    let ops_failed = isum (fun o -> o.Scenario.o_ops_failed) outs in
    {
      ops = List.length execs + List.length rows;
      attempted = List.length execs + List.length rows;
      failures;
      body_s = secs execs +. secs rows;
      words = sum (fun (_, _, w) -> w) execs +. sum (fun (_, _, w) -> w) rows;
      fingerprint =
        List.map
          (fun (r : Runner.result) ->
            Printf.sprintf "vopr %Ld %s events=%d steps=%d issues=%d" r.plan.Gen.seed r.digest r.events
              r.steps (List.length r.issues))
          results
        @ List.map
            (fun (o : Scenario.outcome) ->
              Printf.sprintf "scenario %s %s events=%d committed=%d ok=%d failed=%d" o.o_name
                o.o_digest o.o_events o.o_committed o.o_ops_ok o.o_ops_failed)
            outs;
      sim = [];
      layers =
        [
          ("sim.events_per_op", float steps /. plans_n, "events");
          ("sim.host_ns_per_event", secs execs *. 1e9 /. float steps, "ns");
          ("vopr.execute_ms.p50", Measure.percentile ex 50.0, "ms");
          ("vopr.execute_ms.tail", ex_tail, "ms");
          ("vopr.scenario_ms.p50", Measure.percentile sc 50.0, "ms");
          ("vopr.scenario_ms.max", sc.(Array.length sc - 1), "ms");
          ("vopr.steps_per_seed", float steps /. plans_n, "events");
          ("vopr.issues", float (isum (fun (r : Runner.result) -> List.length r.issues) results), "count");
          ("repl.commits_per_s", float (isum (fun o -> o.Scenario.o_committed) outs) /. secs rows, "1/s");
          ("repl.ops_failed_frac", float ops_failed /. float (max 1 (ops_ok + ops_failed)), "ratio");
        ];
      bus_events = 0;
    }

(* The swarm's own topologies, rebuilt from each plan's config the way
   the runner builds them. *)
let swarm_sizes ~seed _ =
  let configs = List.map Gen.config_of_seed (swarm_seeds seed) in
  let topo (c : Gen.config) =
    let t = Topology.create () in
    (match c.Gen.shape with
    | Gen.Clique -> ignore (Topology.clique t c.Gen.nodes ~latency:c.Gen.latency)
    | Gen.Star -> ignore (Topology.star t (c.Gen.nodes - 1) ~latency:c.Gen.latency)
    | Gen.Line -> ignore (Topology.line t c.Gen.nodes ~latency:c.Gen.latency));
    t
  in
  let med f = int_of_float (Measure.median (List.map (fun c -> float (f c)) configs)) in
  {
    Probes.topos = List.map topo configs;
    set_size = med (fun c -> c.Gen.initial_size);
    nodes = med (fun c -> c.Gen.nodes);
    log_len = churn_log_len ~seed;
    spec_events = true;
  }

let swarm_extras ~seed _ =
  let _, dt, _ = Measure.measure (fun () -> List.map Gen.generate (swarm_seeds seed)) in
  [ ("vopr.gen_ms", dt *. 1e3, "ms") ]

let iterate_quiet =
  {
    name = "iterate-quiet";
    setup = quiet_setup ~size:1024;
    extras = quiet_extras;
    sizes = (fun ~seed _ -> clique_sizes ~set_size:1024 ~log_len:(churn_log_len ~seed) ~spec_events:false);
  }

let swarm =
  {
    name = "swarm";
    setup = swarm_setup;
    extras = swarm_extras;
    sizes = swarm_sizes;
  }

let all = [ iterate_quiet; spec_churn; swarm ]
