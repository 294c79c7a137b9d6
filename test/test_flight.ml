(* Flight recorder, exemplar-linked histograms and the bounded metrics
   reservoir: deterministic forensic capture end to end.

   Everything here is virtual-time and seed-deterministic: dumps must be
   byte-identical across reruns, reservoirs must stay bounded however
   long the stream, and SLO alerting must latch (one alert per sustained
   breach, re-armed only after recovery). *)

module Engine = Weakset_sim.Engine
module Bus = Weakset_obs.Bus
module Event = Weakset_obs.Event
module Metrics = Weakset_obs.Metrics
module Exemplar = Weakset_obs.Exemplar
module Flight = Weakset_obs.Flight
module Slo = Weakset_obs.Slo
module Trace = Weakset_obs.Trace
module Json = Weakset_obs.Json
module Netstat = Weakset_net.Netstat
module Gen = Weakset_vopr.Gen
module Runner = Weakset_vopr.Runner

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Exemplar tables                                                     *)
(* ------------------------------------------------------------------ *)

let test_exemplar_buckets () =
  let t = Exemplar.create () in
  Exemplar.observe t ~time:1.0 ~span:7 0.3;
  Exemplar.observe t ~time:2.0 ~span:8 3.0;
  Exemplar.observe t ~time:3.0 100.0;
  checki "total" 3 (Exemplar.count t);
  let non_empty =
    List.filter (fun (_, c, _) -> c > 0) (Exemplar.buckets t)
  in
  checki "three buckets hit" 3 (List.length non_empty);
  (match Exemplar.worst t with
  | Some e ->
      check (Alcotest.float 1e-9) "worst value" 100.0 e.Exemplar.ex_value;
      checkb "worst has no span" true (e.Exemplar.ex_span = None)
  | None -> Alcotest.fail "no worst exemplar");
  (* Bigger sample in the same bucket wins; smaller loses. *)
  Exemplar.observe t ~time:4.0 ~span:9 3.9;
  Exemplar.observe t ~time:5.0 ~span:10 3.1;
  let _, _, ex4 =
    List.find (fun (b, _, _) -> b = 4.0) (Exemplar.buckets t)
  in
  (match ex4 with
  | Some e ->
      check (Alcotest.float 1e-9) "bucket keeps worst" 3.9 e.Exemplar.ex_value;
      checkb "span follows worst" true (e.Exemplar.ex_span = Some 9)
  | None -> Alcotest.fail "bucket 4 lost its exemplar")

let test_exemplar_aging () =
  let t = Exemplar.create ~window:10.0 () in
  Exemplar.observe t ~time:0.0 ~span:1 5.0;
  (* Within the window a smaller sample does not displace the worst... *)
  Exemplar.observe t ~time:5.0 ~span:2 4.5;
  let bucket_ex () =
    match List.find (fun (b, _, _) -> b = 8.0) (Exemplar.buckets t) with
    | _, _, Some e -> e
    | _ -> Alcotest.fail "bucket 8 empty"
  in
  checkb "fresh worst retained" true ((bucket_ex ()).Exemplar.ex_span = Some 1);
  (* ...but once the retained exemplar ages out, any sample replaces it,
     so the evidence stays recent enough to resolve against a ring. *)
  Exemplar.observe t ~time:20.0 ~span:3 4.2;
  checkb "aged-out exemplar replaced" true
    ((bucket_ex ()).Exemplar.ex_span = Some 3)

let test_exemplar_json () =
  let t = Exemplar.create () in
  Exemplar.observe t ~time:1.5 ~span:42 3.0;
  Exemplar.observe t ~time:2.0 1000.0;
  let j = Exemplar.to_json t in
  checkb "span rendered" true (contains_sub j {|"span":42|});
  checkb "unbounded bucket labelled" true (contains_sub j {|"le":"+Inf"|});
  checkb "spanless exemplar omits span" true
    (contains_sub j {|"value":1000,|} || not (contains_sub j {|"span":null|}))

(* ------------------------------------------------------------------ *)
(* Bounded histogram reservoir                                         *)
(* ------------------------------------------------------------------ *)

let test_reservoir_bounded () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  let n = Metrics.reservoir_capacity * 10 in
  for i = 1 to n do
    Metrics.observe h (float_of_int i)
  done;
  checki "count exact" n (Metrics.h_count h);
  check (Alcotest.float 1e-6) "sum exact"
    (float_of_int n *. float_of_int (n + 1) /. 2.0)
    (Metrics.h_sum h);
  checkb "memory bounded at 10x" true
    (Metrics.h_retained h <= Metrics.reservoir_capacity);
  (* The decimated subsample is uniform by index, so on a monotone
     stream the median stays near the true median. *)
  let p50 = Metrics.h_percentile h 50.0 in
  let true_p50 = float_of_int n /. 2.0 in
  checkb "p50 near true median" true
    (Float.abs (p50 -. true_p50) /. true_p50 < 0.02)

let test_reservoir_deterministic () =
  let feed () =
    let m = Metrics.create () in
    let h = Metrics.histogram m "lat" in
    for i = 1 to 10_000 do
      Metrics.observe h (float_of_int ((i * 7919) mod 1000))
    done;
    (m, h)
  in
  let m1, h1 = feed () and m2, h2 = feed () in
  checki "same retained count" (Metrics.h_retained h1) (Metrics.h_retained h2);
  List.iter
    (fun p ->
      check (Alcotest.float 1e-12)
        (Printf.sprintf "p%.0f identical" p)
        (Metrics.h_percentile h1 p) (Metrics.h_percentile h2 p))
    [ 50.0; 95.0; 99.0 ];
  check Alcotest.string "registry json identical" (Metrics.to_json m1)
    (Metrics.to_json m2)

let test_reservoir_exact_below_cap () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  List.iter (Metrics.observe h) [ 4.0; 1.0; 3.0; 2.0 ];
  checki "all retained" 4 (Metrics.h_retained h);
  check (Alcotest.float 1e-9) "p0 = min" 1.0 (Metrics.h_percentile h 0.0);
  check (Alcotest.float 1e-9) "p100 = max" 4.0 (Metrics.h_percentile h 100.0);
  check (Alcotest.float 1e-9) "p50 exact" 2.5 (Metrics.h_percentile h 50.0)

(* Crossing [reservoir_capacity] exactly: the sample that fills the
   array is still exact (nothing dropped, percentiles over every value);
   the next sample triggers one in-place compaction — stride doubles,
   half the entries survive, count and sum stay exact. *)
let test_reservoir_crosses_capacity_exactly () =
  let cap = Metrics.reservoir_capacity in
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  for i = 1 to cap do
    Metrics.observe h (float_of_int i)
  done;
  checki "at capacity everything is retained" cap (Metrics.h_retained h);
  check (Alcotest.float 1e-9) "p100 exact at capacity" (float_of_int cap)
    (Metrics.h_percentile h 100.0);
  check (Alcotest.float 1e-9) "p0 exact at capacity" 1.0 (Metrics.h_percentile h 0.0);
  Metrics.observe h (float_of_int (cap + 1));
  checki "one past capacity compacts to half" ((cap / 2) + 1) (Metrics.h_retained h);
  checki "count still exact" (cap + 1) (Metrics.h_count h);
  check (Alcotest.float 1e-6) "sum still exact"
    (float_of_int ((cap + 1) * (cap + 2)) /. 2.0)
    (Metrics.h_sum h);
  (* Survivors are the even original indices plus the new admission, so
     the extremes the decimated percentiles see are 1 and cap+1. *)
  check (Alcotest.float 1e-9) "p0 survives decimation" 1.0 (Metrics.h_percentile h 0.0);
  check (Alcotest.float 1e-9) "p100 is the new sample" (float_of_int (cap + 1))
    (Metrics.h_percentile h 100.0)

let test_observe_ex_exports_exemplars () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "client.latency" ~labels:[ ("op", "fetch") ] in
  Metrics.observe_ex h ~time:10.0 ~span:3 2.0;
  Metrics.observe_ex h ~time:11.0 ~span:4 6.5;
  let j = Metrics.to_json m in
  checkb "exemplars in metrics json" true (contains_sub j {|"exemplars":[|});
  checkb "retained in metrics json" true (contains_sub j {|"retained":2|});
  (* And the reader side finds them, worst first. *)
  let parsed = Json.of_string j in
  match Flight.tail_exemplars parsed with
  | (key, v, _, span) :: _ ->
      check Alcotest.string "worst key" "client.latency{op=fetch}" key;
      check (Alcotest.float 1e-9) "worst value" 6.5 v;
      checkb "worst span" true (span = Some 4)
  | [] -> Alcotest.fail "no exemplars extracted"

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let emit bus ~time kind = Bus.emit bus ~time kind

let test_ring_bound_and_dropped () =
  let bus = Bus.create () in
  let f = Flight.create ~capacity:8 bus in
  for i = 1 to 100 do
    emit bus ~time:(float_of_int i) (Event.Net_send { src = 0; dst = 1; lc = i })
  done;
  checki "drops counted" 92 (Flight.dropped_total f);
  checki "registry mirrors drops" 92
    (Metrics.peek_counter (Bus.metrics bus) "obs.flight.dropped");
  (* Netstat surfaces the same counter. *)
  let st = Netstat.snapshot (Bus.metrics bus) ~instance:0 in
  checki "netstat obs_dropped" 92 st.Netstat.obs_dropped;
  (* The dump header carries it too. *)
  Flight.trigger f ~time:200.0 (Flight.Manual "test");
  match Flight.dumps f with
  | [ d ] -> (
      match Flight.parse_dump d.Flight.d_json with
      | Ok p ->
          checki "dump dropped_total" 92 p.Flight.p_dropped;
          checki "ring kept capacity" 8 (List.length p.Flight.p_events)
      | Error m -> Alcotest.fail m)
  | ds -> Alcotest.failf "expected 1 dump, got %d" (List.length ds)

let test_dump_deterministic () =
  let run () =
    let bus = Bus.create () in
    let f = Flight.create ~capacity:16 bus in
    emit bus ~time:1.0
      (Event.Span_start { span = 1; parent = None; name = "ls"; node = Some 2 });
    emit bus ~time:1.5 (Event.Net_send { src = 2; dst = 0; lc = 1 });
    emit bus ~time:2.5
      (Event.Net_deliver { src = 2; dst = 0; sent_at = 1.5; send_lc = 1; lc = 2 });
    emit bus ~time:3.0
      (Event.Spec_violation { set_id = 1; where = "constraint"; message = "lost" });
    match Flight.dumps f with [ d ] -> d.Flight.d_json | _ -> Alcotest.fail "no dump"
  in
  check Alcotest.string "byte-identical dumps" (run ()) (run ())

let test_bus_triggers () =
  let bus = Bus.create () in
  let f = Flight.create ~capacity:16 ~debounce:10.0 bus in
  emit bus ~time:5.0
    (Event.Alert
       {
         source = "slo";
         op = "client.fetch";
         severity = Event.Sev_warn;
         burn = 2.0;
         window = 200.0;
         detail = "";
       });
  emit bus ~time:50.0
    (Event.Spec_violation { set_id = 1; where = "ensures"; message = "m" });
  emit bus ~time:100.0 (Event.Fault_node_crash { node = 3 });
  let kinds = List.map (fun d -> Flight.cause_label d.Flight.d_cause) (Flight.dumps f) in
  check (Alcotest.list Alcotest.string) "three trigger kinds"
    [ "slo-burn"; "spec-violation"; "node-crash" ]
    kinds

let test_debounce () =
  let bus = Bus.create () in
  let f = Flight.create ~capacity:16 ~debounce:50.0 bus in
  let violate t =
    emit bus ~time:t
      (Event.Spec_violation { set_id = 1; where = "w"; message = Printf.sprintf "%g" t })
  in
  violate 10.0;
  violate 20.0;
  violate 30.0;
  checki "one incident, one dump" 1 (List.length (Flight.dumps f));
  checki "repeats suppressed" 2 (Flight.suppressed f);
  violate 100.0;
  checki "re-armed after debounce" 2 (List.length (Flight.dumps f));
  match List.rev (Flight.dumps f) with
  | last :: _ -> (
      match Flight.parse_dump last.Flight.d_json with
      | Ok p -> checki "dump reports suppressed count" 2 p.Flight.p_suppressed
      | Error m -> Alcotest.fail m)
  | [] -> Alcotest.fail "no dumps"

let test_inflight_table () =
  let bus = Bus.create () in
  let f = Flight.create ~capacity:16 bus in
  emit bus ~time:1.0
    (Event.Span_start { span = 3; parent = None; name = "ls"; node = Some 0 });
  emit bus ~time:1.2
    (Event.Span_start { span = 4; parent = Some 3; name = "client.fetch"; node = Some 0 });
  emit bus ~time:2.0 (Event.Span_end { span = 4; name = "client.fetch"; node = Some 0; dur = 0.8 });
  Flight.trigger f ~time:3.0 (Flight.Manual "snapshot");
  match Flight.dumps f with
  | [ d ] -> (
      match Flight.parse_dump d.Flight.d_json with
      | Ok p ->
          check
            (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
            "only the open span is in flight"
            [ (3, "ls") ]
            p.Flight.p_inflight
      | Error m -> Alcotest.fail m)
  | _ -> Alcotest.fail "expected one dump"

let test_parse_dump_fields () =
  let bus = Bus.create () in
  let f = Flight.create ~capacity:16 bus in
  emit bus ~time:1.0 (Event.Net_send { src = 0; dst = 1; lc = 1 });
  emit bus ~time:2.0 (Event.Net_send { src = 1; dst = 0; lc = 1 });
  Flight.trigger f ~time:9.0
    (Flight.Oracle_verdict { category = "stuck-iterator"; detail = "it 0" });
  match Flight.dumps f with
  | [ d ] -> (
      match Flight.parse_dump d.Flight.d_json with
      | Ok p ->
          check (Alcotest.float 1e-9) "time" 9.0 p.Flight.p_time;
          check Alcotest.string "kind" "oracle-verdict" p.Flight.p_cause_kind;
          checkb "detail mentions category" true
            (contains_sub p.Flight.p_cause_detail "stuck-iterator");
          checki "events merged from all rings" 2 (List.length p.Flight.p_events);
          (* Merged stream is in sequence order. *)
          let seqs = List.map (fun (e : Event.t) -> e.Event.seq) p.Flight.p_events in
          check (Alcotest.list Alcotest.int) "seq order" (List.sort compare seqs) seqs
      | Error m -> Alcotest.fail m)
  | _ -> Alcotest.fail "expected one dump"

(* ------------------------------------------------------------------ *)
(* SLO hysteresis                                                      *)
(* ------------------------------------------------------------------ *)

let span_end ~time ~dur =
  {
    Event.seq = 0;
    time;
    kind = Event.Span_end { span = 0; name = "client.fetch"; node = Some 0; dur };
  }

let make_slo ?bus () =
  Slo.create ?bus
    [ { Slo.op = "client.fetch"; max_latency = 1.0; target = 0.5; window = 100.0 } ]

let test_slo_latches_once () =
  let s = make_slo () in
  (* Sustained breach: every sample bad.  The alert must latch on the
     upward crossing and stay latched — one alert, not one per sample. *)
  for i = 1 to 20 do
    Slo.handle s (span_end ~time:(float_of_int i) ~dur:5.0)
  done;
  checki "one latched alert" 1 (Slo.alert_count s)

let test_slo_rearms_after_recovery () =
  let s = make_slo () in
  let t = ref 0.0 in
  let feed dur n =
    for _ = 1 to n do
      t := !t +. 1.0;
      Slo.handle s (span_end ~time:!t ~dur)
    done
  in
  feed 5.0 10;
  checki "first breach alerts" 1 (Slo.alert_count s);
  (* Recovery: enough good samples to push burn below the warn threshold
     re-arms the tracker without alerting... *)
  feed 0.1 40;
  checki "recovery does not alert" 1 (Slo.alert_count s);
  (* ...so the next sustained breach alerts again. *)
  feed 5.0 60;
  checki "second breach re-alerts" 2 (Slo.alert_count s)

let test_slo_alert_triggers_flight_debounced () =
  let bus = Bus.create () in
  let f = Flight.create ~capacity:32 ~debounce:200.0 bus in
  let s = make_slo ~bus () in
  Bus.attach bus ~name:"slo" (Slo.sink s);
  (* Two breach episodes in quick succession: both latch an Alert, but
     the flight recorder treats them as one incident. *)
  let t = ref 0.0 in
  let feed dur n =
    for _ = 1 to n do
      t := !t +. 1.0;
      emit bus ~time:!t
        (Event.Span_end { span = 0; name = "client.fetch"; node = Some 0; dur })
    done
  in
  feed 5.0 10;
  feed 0.1 40;
  feed 5.0 60;
  checki "two alerts latched" 2 (Slo.alert_count s);
  checki "one dump within debounce" 1 (List.length (Flight.dumps f));
  checkb "second trigger suppressed" true (Flight.suppressed f >= 1)

(* ------------------------------------------------------------------ *)
(* End to end through the VOPR runner                                  *)
(* ------------------------------------------------------------------ *)

let execute_planted seed = Runner.execute ~mutation:Grow_only_drop (Gen.generate seed)

(* First seed in the CI smoke range whose planted-bug run fails. *)
let failing_planted_plan () =
  let rec scan seed =
    if seed >= 33L then Alcotest.fail "no failing planted-bug seed in 0..32"
    else
      let r = execute_planted seed in
      if r.Runner.issues <> [] then (seed, r) else scan (Int64.add seed 1L)
  in
  scan 0L

let test_vopr_blackbox_end_to_end () =
  let seed, r = failing_planted_plan () in
  checkb "failing run carries dumps" true (r.Runner.blackbox <> []);
  (* Byte-identical across replays of the same seed. *)
  let r2 = execute_planted seed in
  check
    (Alcotest.list Alcotest.string)
    "dumps byte-identical across replays"
    (List.map (fun d -> d.Flight.d_json) r.Runner.blackbox)
    (List.map (fun d -> d.Flight.d_json) r2.Runner.blackbox);
  (* Each dump parses; at least one exemplar span resolves to a span
     tree reconstructed from the dump's own rings. *)
  let resolved = ref 0 in
  List.iter
    (fun d ->
      match Flight.parse_dump d.Flight.d_json with
      | Error m -> Alcotest.fail m
      | Ok p ->
          let tr = Trace.build p.Flight.p_events in
          List.iter
            (fun (_, _, _, span) ->
              match span with
              | Some s when Trace.span tr s <> None -> incr resolved
              | _ -> ())
            (Flight.tail_exemplars p.Flight.p_metrics))
    r.Runner.blackbox;
  checkb "an exemplar resolves to a recorded span" true (!resolved > 0);
  (* Dumps ride inside repro bundles and round-trip byte-exactly. *)
  let b = Runner.bundle_of_result r in
  match Runner.bundle_of_string (Runner.bundle_to_json b) with
  | Error m -> Alcotest.fail m
  | Ok b' ->
      check
        (Alcotest.list Alcotest.string)
        "bundle round-trips dumps"
        b.Runner.b_blackbox b'.Runner.b_blackbox

let () =
  Alcotest.run "weakset_flight"
    [
      ( "exemplar",
        [
          Alcotest.test_case "buckets and worst retention" `Quick test_exemplar_buckets;
          Alcotest.test_case "aged-out exemplar replaced" `Quick test_exemplar_aging;
          Alcotest.test_case "json rendering" `Quick test_exemplar_json;
        ] );
      ( "reservoir",
        [
          Alcotest.test_case "bounded on a 10x run" `Quick test_reservoir_bounded;
          Alcotest.test_case "decimation deterministic" `Quick test_reservoir_deterministic;
          Alcotest.test_case "exact below capacity" `Quick test_reservoir_exact_below_cap;
          Alcotest.test_case "crossing capacity exactly" `Quick
            test_reservoir_crosses_capacity_exactly;
          Alcotest.test_case "observe_ex exports exemplars" `Quick
            test_observe_ex_exports_exemplars;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring bound and dropped surfaced" `Quick
            test_ring_bound_and_dropped;
          Alcotest.test_case "dumps byte-identical" `Quick test_dump_deterministic;
          Alcotest.test_case "bus events trigger dumps" `Quick test_bus_triggers;
          Alcotest.test_case "debounce: one incident one dump" `Quick test_debounce;
          Alcotest.test_case "in-flight span table" `Quick test_inflight_table;
          Alcotest.test_case "parse_dump fields" `Quick test_parse_dump_fields;
        ] );
      ( "slo-hysteresis",
        [
          Alcotest.test_case "one latched alert per breach" `Quick test_slo_latches_once;
          Alcotest.test_case "re-arms after recovery" `Quick test_slo_rearms_after_recovery;
          Alcotest.test_case "alert trigger debounced" `Quick
            test_slo_alert_triggers_flight_debounced;
        ] );
      ( "vopr-blackbox",
        [
          Alcotest.test_case "planted bug: dumps, exemplars, bundles" `Slow
            test_vopr_blackbox_end_to_end;
        ] );
    ]
