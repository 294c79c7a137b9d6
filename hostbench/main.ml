(* Host-cost benchmark of the weak-set system.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off: single
   set-ups for a sixth of S (their scaled median is setup_s), then whole
   rounds of the workload, all on the same inputs, until about S seconds
   have passed.  --trace 1 is the traced run, a fixed amount of
   work: one untraced reference round, the same round again with spans
   and fiber-slice accounting on (its simulated outputs must equal the
   reference's exactly), the workload's own extra runs and the layer
   probes.

   Human-readable lines come first; the last line is one JSON object with
   the keys correct, attempted, failed and metrics.  Failed ops make
   correct false; simulated outputs that fail to repeat also make the
   exit code 1. *)

module W = Workloads

let usage () =
  prerr_endline
    "usage: main.exe --workload iterate-quiet|spec-churn|swarm --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg r v = match int_of_string_opt v with Some n when n >= 0 -> r := Some n | _ -> usage () in
  let rec go = function
    | "--workload" :: v :: rest ->
        (match List.find_opt (fun (w : W.t) -> w.name = v) W.all with
        | Some w -> workload := Some w
        | None -> usage ());
        go rest
    | "--seed" :: v :: rest ->
        int_arg seed v;
        go rest
    | "--seconds" :: v :: rest ->
        int_arg seconds v;
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace -> (w, seed, float seconds, trace)
  | _ -> usage ()

(* setup_s is the median of single set-ups, each from a freshly collected
   heap, taken for [setup_share] of the run and at least [min_setups] of
   them.  Every sample is one set-up, because a batch of them amortises
   the collector's work over however many fit.

   On a shared virtual machine the host's speed changes by half or more
   in phases that last from seconds to minutes, longer than a run.  So
   each set-up is followed by [calibration], a fixed loop that calls
   nothing of the system, and the set-up's time is scaled by
   [calibration_ref_s] over the loop's time: setup_s is the set-up time
   at the speed where the loop takes [calibration_ref_s].  A set-up and
   its loop run in the same phase, so the phase cancels. *)
let setup_share = 1.0 /. 6.0
let min_setups = 5

let calibration () =
  let tbl = Hashtbl.create 16 in
  for i = 0 to 19_999 do
    Hashtbl.replace tbl i (Array.make 8 i)
  done;
  Hashtbl.fold (fun _ a acc -> acc + a.(0)) tbl 0

let calibration_ref_s = 0.005

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         if not (Float.is_finite v) then failwith (name ^ " is not a finite number");
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       metrics)

let print_metric (name, v, unit) note =
  Printf.printf "  %-34s %16.6g %-8s %s\n" name v unit note

(* The metrics the result line carries are the ones BENCHMARK.json (at
   the root of the checkout) lists under [section]: "end_to_end" for
   the timed run, "per_layer" for the traced run. *)
let manifest_metrics section measured =
  let module J = Weakset_obs.Json in
  let ic = open_in_bin "BENCHMARK.json" in
  let manifest = J.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  Option.bind (J.member section manifest) J.to_list
  |> Option.value ~default:[]
  |> List.map (fun entry ->
         let name = Option.bind (J.member "name" entry) J.to_string |> Option.value ~default:"" in
         match List.find_opt (fun (n, _, _) -> n = name) measured with
         | Some m -> m
         | None -> failwith (Printf.sprintf "%s metric %S was not measured" section name))

(* Prints the result line.  Failed ops make [correct] false; simulated
   outputs that did not repeat also make the exit code 1, since the
   measurements themselves are then in doubt. *)
let finish ~failures ~mismatches ~attempted ~section measured =
  let metrics = manifest_metrics section measured in
  (* Rounds repeat their inputs, so a failing op fails in every round:
     each distinct line is printed once, with its count. *)
  let lines = List.map snd (failures @ mismatches) in
  List.iter
    (fun line ->
      match List.length (List.filter (String.equal line) lines) with
      | 1 -> Printf.printf "FAIL %s\n" line
      | k -> Printf.printf "FAIL %s (x%d)\n" line k)
    (List.sort_uniq String.compare lines);
  let failed = min attempted (W.isum fst failures) in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failures = [] && mismatches = []) attempted failed (json_metrics metrics);
  exit (if mismatches = [] then 0 else 1)

(* The set-up samples' summary: scaled median and quartiles, and the
   unscaled medians of the set-ups and of the calibration loop. *)
type setups = { count : int; median : float; q1 : float; q3 : float; raw : float; calibration : float }

(* Each round keeps its op times (ms), sorted.  [peak_heap_mb] is the
   top of the major heap once the first round is over: later rounds would
   raise it by an amount that depends on how many of them fit. *)
type run = { rounds : (W.outcome * float array) list; setups : setups; peak_heap_mb : float }

let outcomes run = List.map fst run.rounds

(* Set-up samples, calibration loops and rounds each start from a
   compacted heap, so none pays an earlier one's collection debt. *)
let from_compacted_heap f =
  Gc.compact ();
  let t0 = Measure.now () in
  f ();
  Measure.now () -. t0

let setup_sample (w : W.t) ~seed =
  let setup =
    from_compacted_heap (fun () ->
        let (_ : Measure.Samples.t -> W.outcome) = w.setup ~seed () in
        ())
  in
  (setup, from_compacted_heap (fun () -> ignore (Sys.opaque_identity (calibration ()))))

(* Set-up samples for [seconds], at least [min_setups] of them, taken in
   a forked copy of this process that the caller waits for.  The copy
   starts from the fresh heap the rounds start from, and the rounds' heap
   never sees the samples: how many fit depends on the host's speed, and
   the collector's state after them would change the heap the rounds
   grow to.  Only a fixed-size summary comes back, for the same
   reason. *)
let setup_samples (w : W.t) ~seed ~seconds =
  let rd, wr = Unix.pipe () in
  (* The copy must not write out this process's buffered output again. *)
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let t0 = Measure.now () and n = ref 0 and acc = ref [] in
      while !n < min_setups || Measure.now () -. t0 < seconds do
        acc := setup_sample w ~seed :: !acc;
        incr n
      done;
      let scaled = Array.of_list (List.map (fun (s, c) -> s /. c *. calibration_ref_s) !acc) in
      Array.sort Float.compare scaled;
      let summary =
        {
          count = !n;
          median = Measure.median (Array.to_list scaled);
          q1 = Measure.percentile scaled 25.0;
          q3 = Measure.percentile scaled 75.0;
          raw = Measure.median (List.map fst !acc);
          calibration = Measure.median (List.map snd !acc);
        }
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc (summary : setups) [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let summary = try Some (Marshal.from_channel ic : setups) with End_of_file -> None in
      close_in ic;
      match (Unix.waitpid [] pid, summary) with
      | (_, Unix.WEXITED 0), Some summary -> summary
      | _ -> failwith "set-up sampling process failed")

(* Set-up samples for [setup_seconds], then whole rounds (at least one)
   until about [seconds] have passed since the start: another round
   starts only if it would end at most half a round past [seconds]. *)
let run_rounds (w : W.t) ~seed ~seconds ~setup_seconds =
  let t0 = Measure.now () in
  let setups = setup_samples w ~seed ~seconds:setup_seconds in
  let rounds = ref [] and peak = ref 0.0 and last = ref 0.0 in
  while !rounds = [] || Measure.now () -. t0 +. (!last /. 2.0) < seconds do
    Gc.compact ();
    let r0 = Measure.now () in
    let body = Trace.with_span "setup" (w.setup ~seed) in
    let times = Measure.Samples.create () in
    let o = body times in
    rounds := (o, Measure.Samples.sorted times) :: !rounds;
    last := Measure.now () -. r0;
    if List.length !rounds = 1 then peak := Measure.peak_heap_mb ()
  done;
  { rounds = List.rev !rounds; setups; peak_heap_mb = !peak }

let failures rounds =
  List.concat_map (fun (o : W.outcome) -> o.failures) rounds

(* Every round replays the reference's seeded inputs, so it must repeat
   every simulated output exactly; a difference names the first diverging
   line. *)
let repeat_failures ~what (reference : W.outcome) rounds =
  List.filter_map
    (fun (o : W.outcome) ->
      if o.fingerprint = reference.fingerprint then None
      else
        let diff =
          match
            List.find_opt (fun (a, b) -> a <> b)
              (List.combine reference.fingerprint o.fingerprint)
          with
          | Some (a, b) -> Printf.sprintf "%s | %s" a b
          | None -> "different op counts"
          | exception Invalid_argument _ -> "different op counts"
        in
        Some (1, Printf.sprintf "%s: simulated outputs differ: %s" what diff))
    rounds

(* Throughput and the tail are taken per round and reported as their
   median over rounds, so one disturbed round does not move them; every
   round has the same ops, so the tail percentile is the same in every
   round and every run.  The median op time is over all samples. *)
let end_to_end (w : W.t) run =
  let os = outcomes run in
  let ops = W.isum (fun (o : W.outcome) -> o.ops) os in
  let body = W.sum (fun (o : W.outcome) -> o.body_s) os in
  let words = W.sum (fun (o : W.outcome) -> o.words) os in
  let all = Array.concat (List.map snd run.rounds) in
  Array.sort Float.compare all;
  let tails =
    List.map
      (fun (_, sorted) ->
        match Measure.tail sorted with Some t -> t | None -> failwith "fewer than 11 ops in a round")
      run.rounds
  in
  let p, _, beyond = List.hd tails in
  let metrics =
    [
      ("setup_s", run.setups.median, "s");
      ("ops_per_s", Measure.median (List.map (fun (o : W.outcome) -> float o.ops /. o.body_s) os), "op/s");
      ("op_ms.p50", Measure.percentile all 50.0, "ms");
      ("op_ms.tail", Measure.median (List.map (fun (_, v, _) -> v) tails), "ms");
      ("alloc_words_per_op", words /. float ops, "words");
      ("peak_heap_mb", run.peak_heap_mb, "MB");
    ]
  in
  let rounds = List.length os in
  let notes =
    [
      Printf.sprintf "median of %d set-ups, scaled (quartiles %.4g-%.4g ms; unscaled %.4g ms, loop %.4g ms)"
        run.setups.count (run.setups.q1 *. 1e3) (run.setups.q3 *. 1e3) (run.setups.raw *. 1e3)
        (run.setups.calibration *. 1e3);
      Printf.sprintf "median of %d rounds (%s); %d ops in %.3f s of timed calls" rounds
        (String.concat " " (List.map (fun (o : W.outcome) -> Printf.sprintf "%.4g" (float o.ops /. o.body_s)) os))
        ops body;
      Printf.sprintf "%d samples" (Array.length all);
      Printf.sprintf "p%g per round (%d of %d samples beyond), median of %d rounds" p beyond
        (Array.length (snd (List.hd run.rounds))) rounds;
      "";
      "top of the major heap after the first round";
    ]
  in
  Printf.printf "end-to-end (%s, tracing off):\n" w.name;
  List.iter2 print_metric metrics notes;
  let attempted = W.isum (fun (o : W.outcome) -> o.attempted) os in
  let failed = W.isum fst (failures os) in
  print_metric ("fail_frac", float failed /. float attempted, "ratio")
    (Printf.sprintf "%d of %d ops failed" failed attempted);
  (match os with
  | first :: _ when first.sim <> [] -> List.iter (fun m -> print_metric m "simulated, per round") first.sim
  | _ -> List.iter (fun n -> Printf.printf "  %-34s %16s\n" n "n/a") [ "sim_first_yield"; "sim_time_per_op"; "msgs_per_op" ]);
  metrics

let timed_run (w : W.t) ~seed ~seconds =
  let run =
    run_rounds w ~seed ~seconds ~setup_seconds:(setup_share *. seconds)
  in
  let metrics = end_to_end w run in
  let os = outcomes run in
  finish ~failures:(failures os)
    ~mismatches:(repeat_failures ~what:"round" (List.hd os) (List.tl os))
    ~attempted:(W.isum (fun (o : W.outcome) -> o.attempted) os)
    ~section:"end_to_end" metrics

let traced_run (w : W.t) ~seed =
  let reference = run_rounds w ~seed ~seconds:0.0 ~setup_seconds:0.0 in
  ignore (end_to_end w reference);
  let ref_round = List.hd (outcomes reference) in
  Trace.reset ();
  Trace.on := true;
  let traced = run_rounds w ~seed ~seconds:0.0 ~setup_seconds:0.0 in
  Trace.on := false;
  let tr_round = List.hd (outcomes traced) in
  let spans_path = Probes.scratch_file (Printf.sprintf "spans-%s-seed%d.jsonl" w.name seed) in
  Trace.write_jsonl spans_path;
  let spans = Trace.by_name () in
  Printf.printf "traced round: %d spans written to %s\n" (List.length !Trace.spans) spans_path;
  Printf.printf "  %-20s %8s %12s %12s\n" "span" "count" "total_s" "self_s";
  List.iter
    (fun (name, (c, total, self)) -> Printf.printf "  %-20s %8d %12.6f %12.6f\n" name c total self)
    spans;
  let slices =
    if Trace.slices_total () = 0.0 then []
    else
      let engine_s = match List.assoc_opt "engine.run" spans with Some (_, t, _) -> t | None -> 0.0 in
      [
        ("sim.sched_self_s", engine_s -. Trace.slices_total (), "s");
        ("net.demux_self_s", Trace.slice_s "demux", "s");
        ("net.fault_self_s", Trace.slice_s "fault", "s");
        ("store.handler_self_s", Trace.slice_s "handler", "s");
        ("store.mutator_self_s", Trace.slice_s "mutator", "s");
        ("core.iter_self_s", Trace.slice_s "iter", "s");
        ("dynamic.prefetch_self_s", Trace.slice_s "prefetch", "s");
        ("obs.events_per_op", float tr_round.bus_events /. float tr_round.ops, "events");
      ]
  in
  let layers =
    ref_round.layers
    @ [ ("obs.trace_overhead_x", tr_round.body_s /. ref_round.body_s, "x") ]
    @ slices @ w.extras ~seed ref_round
    @ Probes.all (w.sizes ~seed ref_round)
  in
  Printf.printf "per-layer (%s):\n" w.name;
  List.iter (fun m -> print_metric m "") layers;
  finish
    ~failures:(failures [ ref_round; tr_round ])
    ~mismatches:(repeat_failures ~what:"traced round" ref_round [ tr_round ])
    ~attempted:(ref_round.attempted + tr_round.attempted)
    ~section:"per_layer" layers

let () =
  let w, seed, seconds, trace = parse_args () in
  Printf.printf "hostbench workload=%s seed=%d seconds=%g trace=%d\n%!" w.name seed seconds
    (if trace then 1 else 0);
  if trace then traced_run w ~seed else timed_run w ~seed ~seconds
