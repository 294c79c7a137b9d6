(* Tests for weakset_vopr: generator determinism and stream independence
   (qcheck), plan/bundle JSON round-trips, digest-stable re-execution,
   and the mutation tests the fuzzer must pass to be trusted: with each
   planted bug the runner reaches armed it finds, shrinks and replays a
   violation within a bounded seed range; with none armed the same range
   is clean. *)

module Gen = Weakset_vopr.Gen
module Runner = Weakset_vopr.Runner
module Oracle = Weakset_vopr.Oracle
module Shrink = Weakset_vopr.Shrink
module Scenario = Weakset_vopr.Scenario
module Mutation = Weakset_obs.Mutation

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let seeds first count = List.init count (fun i -> Int64.of_int (first + i))

(* The mutation-test seed range: each planted bug must surface within
   at most 64 seeds. *)
let mutation_range = seeds 0 64

(* ------------------------------------------------------------------ *)
(* Generator                                                          *)
(* ------------------------------------------------------------------ *)

let test_gen_shape_sanity () =
  List.iter
    (fun seed ->
      let plan = Gen.generate seed in
      check_bool "nodes >= 4" true (plan.Gen.config.Gen.nodes >= 4);
      check_bool "has ops" true (plan.Gen.ops <> []);
      check_bool "has an iteration" true
        (List.exists (function Gen.Iterate _ -> true | _ -> false) plan.Gen.ops);
      (* Schedules are time-sorted and faults heal inside the budget. *)
      let sorted times = List.sort compare times = times in
      check_bool "ops time-sorted" true (sorted (List.map Gen.op_time plan.Gen.ops));
      check_bool "faults time-sorted" true (sorted (List.map Gen.fault_time plan.Gen.faults));
      List.iter
        (fun f ->
          let heal =
            match f with
            | Gen.Crash { recover_at; _ } -> Some recover_at
            | Gen.Cut { heal_at; _ } | Gen.Partition { heal_at; _ } -> Some heal_at
            | Gen.Herd _ -> None (* a spike, not a window *)
          in
          match heal with
          | None -> check_bool "herd fires inside budget" true (Gen.fault_time f < plan.Gen.budget)
          | Some heal ->
              check_bool "fault starts before heal" true (Gen.fault_time f < heal);
              check_bool "fault heals inside budget" true (heal < plan.Gen.budget))
        plan.Gen.faults)
    (seeds 0 16)

let prop_generate_deterministic =
  QCheck.Test.make ~name:"generate is a pure function of the seed" ~count:50
    QCheck.(int_bound 100_000)
    (fun n ->
      let seed = Int64.of_int n in
      Gen.plan_to_json (Gen.generate seed) = Gen.plan_to_json (Gen.generate seed))

let prop_config_stream_independent =
  QCheck.Test.make ~name:"config_of_seed equals (generate seed).config" ~count:50
    QCheck.(int_bound 100_000)
    (fun n ->
      let seed = Int64.of_int n in
      Gen.config_of_seed seed = (Gen.generate seed).Gen.config)

let prop_plan_json_roundtrip =
  QCheck.Test.make ~name:"plan JSON round-trips byte-exactly" ~count:50
    QCheck.(int_bound 100_000)
    (fun n ->
      let plan = Gen.generate (Int64.of_int n) in
      let json = Gen.plan_to_json plan in
      match Gen.plan_of_string json with
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e
      | Ok plan' -> plan' = plan && Gen.plan_to_json plan' = json)

(* ------------------------------------------------------------------ *)
(* Runner determinism                                                 *)
(* ------------------------------------------------------------------ *)

let test_execute_digest_stable () =
  let plan = Gen.generate 3L in
  let a = Runner.execute plan and b = Runner.execute plan in
  check_string "same digest" a.Runner.digest b.Runner.digest;
  check_int "same event count" a.Runner.events b.Runner.events;
  check_int "same step count" a.Runner.steps b.Runner.steps

(* Three bundles — a plain plan, a plan recorded with a mutation armed,
   and a scenario row — each survive JSON byte-exactly; and every
   mutation's name parses back to it. *)
let test_bundle_roundtrip () =
  let roundtrip what bundle =
    match Runner.bundle_of_string (Runner.bundle_to_json bundle) with
    | Error e -> Alcotest.failf "%s: bundle parse error: %s" what e
    | Ok bundle' ->
        check_string (what ^ ": re-serialization identical") (Runner.bundle_to_json bundle)
          (Runner.bundle_to_json bundle');
        check_bool (what ^ ": every field preserved") true (bundle' = bundle)
  in
  roundtrip "plan" (Runner.bundle_of_result (Runner.execute (Gen.generate 5L)));
  let armed = Runner.bundle_of_result (Runner.execute ~mutation:Inval_drop (Gen.generate 5L)) in
  check_bool "armed mutation recorded" true (armed.Runner.b_mutation = Some Mutation.Inval_drop);
  roundtrip "armed plan" armed;
  (match Scenario.find "steady-state" with
  | None -> Alcotest.fail "steady-state missing from the table"
  | Some row ->
      let b = Runner.bundle_of_outcome (Scenario.run row) in
      check_bool "row subject" true (b.Runner.b_subject = Runner.Row "steady-state");
      roundtrip "scenario row" b);
  List.iter
    (fun m ->
      let name = Mutation.to_string m in
      check_bool ("of_string inverts to_string: " ^ name) true (Mutation.of_string name = Some m))
    Mutation.all

let has_category cat issues = List.exists (fun i -> Oracle.category i = cat) issues

let test_replay_reproduces () =
  let result = Runner.execute (Gen.generate 7L) in
  match Runner.replay (Runner.bundle_of_result result) with
  | Runner.Reproduced r -> check_string "replay digest" result.Runner.digest r.Runner.b_digest
  | Runner.Digest_mismatch _ -> Alcotest.fail "digest mismatch on replay"
  | Runner.Verdict_mismatch _ -> Alcotest.fail "verdict mismatch on replay"

(* A bundle recorded under a small step cap replays under that cap: the
   run is cut off the same way and convicted the same way, with no cap
   passed to replay. *)
let test_replay_uses_recorded_step_cap () =
  let result = Runner.execute ~step_cap:300 (Gen.generate 3L) in
  check_bool "the cap cut the run off" true (has_category "steps-exhausted" result.Runner.issues);
  match Runner.replay (Runner.bundle_of_result result) with
  | Runner.Reproduced r ->
      check_bool "replay reports steps-exhausted" true
        (has_category "steps-exhausted" r.Runner.b_issues)
  | Runner.Digest_mismatch _ -> Alcotest.fail "digest mismatch on replay"
  | Runner.Verdict_mismatch _ -> Alcotest.fail "verdict mismatch on replay"

(* An execution that raises (here: plan validation, inside the armed
   scope) still disarms its mutation. *)
let test_mutation_disarmed_after_raise () =
  let plan = Gen.generate 3L in
  let bad = { plan with Gen.config = { plan.Gen.config with Gen.nodes = 3 } } in
  (match Runner.execute ~mutation:Grow_only_drop bad with
  | _ -> Alcotest.fail "a 3-node plan must fail validation"
  | exception Invalid_argument _ -> ());
  List.iter
    (fun m -> check_bool ("disarmed: " ^ Mutation.to_string m) false (Mutation.armed m))
    Mutation.all

(* ------------------------------------------------------------------ *)
(* Mutation test                                                      *)
(* ------------------------------------------------------------------ *)

let test_swarm_clean_without_bug () =
  List.iter
    (fun (seed, r) ->
      if r.Runner.issues <> [] then
        Alcotest.failf "seed %Ld flagged a healthy build: %s" seed
          (String.concat "; " (List.map Oracle.describe r.Runner.issues)))
    (Runner.sweep mutation_range)

(* One case per mutation the runner reaches: the test name, the mutation,
   and the verdict that counts as conviction.
   - The grow-only drop may surface as any issue.
   - Dropped wire [Inval] callbacks must be convicted by the cache
     oracle's [Stale_beyond_lease] verdict, not some incidental failure.
   - The flipped membership axiom inside the parametric visibility
     engine must be convicted as a [Spec_violation], since every honest
     yield now reads as illegal.  This is what makes the one-engine
     refactor safe: a single mutated axiom cannot hide. *)
let mutation_cases =
  [
    ("finds, shrinks, replays planted bug", Mutation.Grow_only_drop, fun issues -> issues <> []);
    ( "finds, shrinks, replays planted cache bug",
      Mutation.Inval_drop,
      has_category "stale-beyond-lease" );
    ("finds, shrinks, replays planted spec bug", Mutation.Axiom_flip, has_category "spec-violation");
  ]

(* Each armed swarm convicts within 64 seeds; the first failure shrinks
   to at most 10 schedule events and its bundle replays on its own. *)
let test_swarm_finds_shrinks_and_replays mutation convicts () =
  let failures =
    List.filter (fun (_, r) -> convicts r.Runner.issues) (Runner.sweep ~mutation mutation_range)
  in
  check_bool "convicted within 64 seeds" true (failures <> []);
  let _, failing = List.hd failures in
  let shrunk, issues, stats =
    Shrink.minimize
      ~run:(fun p -> (Runner.execute ~mutation p).Runner.issues)
      ~issues:failing.Runner.issues failing.Runner.plan
  in
  check_bool "shrunk to at most 10 events" true (Gen.event_count shrunk <= 10);
  check_int "stats report the shrunk size" (Gen.event_count shrunk) stats.Shrink.final_events;
  check_bool "shrunk plan still fails the same way" true
    (Oracle.same_failure failing.Runner.issues issues);
  let result = Runner.execute ~mutation shrunk in
  match Runner.replay (Runner.bundle_of_result result) with
  | Runner.Reproduced r ->
      check_bool "replay reports the same failure" true
        (Oracle.same_failure result.Runner.issues r.Runner.b_issues)
  | Runner.Digest_mismatch _ -> Alcotest.fail "digest mismatch replaying shrunk bundle"
  | Runner.Verdict_mismatch _ -> Alcotest.fail "verdict mismatch replaying shrunk bundle"

(* ------------------------------------------------------------------ *)
(* Shrink: unit tests against synthetic run predicates                *)
(* ------------------------------------------------------------------ *)

(* A fixed hand-written plan — [minimize] never executes it (the [run]
   callbacks below are pure predicates on the plan's shape), so what
   matters is only that it has droppable ops and shrinkable faults. *)
let shrink_plan =
  {
    Gen.seed = 42L;
    config =
      {
        Gen.shape = Gen.Clique;
        nodes = 4;
        latency = 1.0;
        replica_ixs = [];
        replica_interval = 10.0;
        initial_size = 4;
        cache = false;
        lease_ttl = 30.0;
        open_loop = None;
      };
    ops =
      [
        Gen.Add { at = 1.0 };
        Gen.Size { at = 2.0 };
        Gen.Iterate { at = 3.0; semantics = "optimistic"; think = 0.5; limit = 10; repeat = 1 };
        Gen.Add { at = 4.0 };
        Gen.Remove { at = 5.0 };
      ];
    faults =
      [
        Gen.Crash { node = 1; at = 5.0; recover_at = 25.0 };
        Gen.Cut { a = 0; b = 1; at = 6.0; heal_at = 20.0 };
      ];
    budget = 100.0;
  }

let an_issue =
  Oracle.Spec_violation { iteration = 0; semantics = "optimistic"; where = "[x]"; message = "m" }

(* Fails iff any Iterate survives: the minimum is exactly one op (that
   Iterate) and no faults — drop passes must reach it and terminate. *)
let test_shrink_minimizes_to_single_op () =
  let run p =
    if List.exists (function Gen.Iterate _ -> true | _ -> false) p.Gen.ops then [ an_issue ]
    else []
  in
  let shrunk, issues, stats = Shrink.minimize ~run ~issues:[ an_issue ] shrink_plan in
  check_int "one op left" 1 (List.length shrunk.Gen.ops);
  check_bool "the survivor is the Iterate" true
    (match shrunk.Gen.ops with [ Gen.Iterate _ ] -> true | _ -> false);
  check_int "no faults left" 0 (List.length shrunk.Gen.faults);
  check_int "final event count" 1 (Gen.event_count shrunk);
  check_int "stats agree" 1 stats.Shrink.final_events;
  check_bool "verdict preserved" true (Oracle.same_failure [ an_issue ] issues);
  check_bool "kept <= runs" true (stats.Shrink.kept <= stats.Shrink.runs)

(* Fails iff a Crash survives: pass 2 must keep the crash (dropping it
   loses the failure) while pass 3 halves its window to a fixpoint
   strictly under one time unit — the documented floor. *)
let test_shrink_halves_fault_window_to_floor () =
  let run p =
    if List.exists (function Gen.Crash _ -> true | _ -> false) p.Gen.faults then [ an_issue ]
    else []
  in
  let shrunk, _, _ = Shrink.minimize ~run ~issues:[ an_issue ] shrink_plan in
  check_int "ops all dropped" 0 (List.length shrunk.Gen.ops);
  match shrunk.Gen.faults with
  | [ Gen.Crash { at; recover_at; _ } ] ->
      let window = recover_at -. at in
      check_bool "window halved below one time unit" true (window < 1.0);
      check_bool "heal still strictly after start" true (recover_at > at)
  | _ -> Alcotest.fail "expected exactly the Crash fault to survive"

(* Every smaller candidate fails in a DIFFERENT category: same_failure
   must reject them all, so the plan comes back untouched. *)
let test_shrink_rejects_category_drift () =
  let run p = if p = shrink_plan then [ an_issue ] else [ Oracle.Lost_rpc { count = 1 } ] in
  let shrunk, issues, stats = Shrink.minimize ~run ~issues:[ an_issue ] shrink_plan in
  check_bool "plan unchanged" true (shrunk = shrink_plan);
  check_int "nothing kept" 0 stats.Shrink.kept;
  check_bool "original verdict retained" true (Oracle.same_failure [ an_issue ] issues)

(* The candidate-execution budget is a hard bound, and an empty issue
   list is a caller error. *)
let test_shrink_budget_and_validation () =
  let count = ref 0 in
  let run _ =
    incr count;
    [ an_issue ]
  in
  let _, _, stats = Shrink.minimize ~max_runs:5 ~run ~issues:[ an_issue ] shrink_plan in
  check_bool "stops at the budget" true (stats.Shrink.runs <= 5);
  check_int "callback called once per run" stats.Shrink.runs !count;
  Alcotest.check_raises "empty issues rejected"
    (Invalid_argument "Vopr.Shrink.minimize: issue list is empty") (fun () ->
      ignore (Shrink.minimize ~run ~issues:[] shrink_plan))

(* ------------------------------------------------------------------ *)
(* Oracle                                                             *)
(* ------------------------------------------------------------------ *)

let test_oracle_issue_json_roundtrip () =
  let issues =
    [
      Oracle.Stale_beyond_lease { time = 12.5; set_id = 1; served = 3; required = 5; age = 2.25 };
      Oracle.Spec_violation
        { iteration = 2; semantics = "grow-only"; where = "[x]"; message = "m" };
      Oracle.Monitor_mismatch { iteration = 0; semantics = "snapshot"; detail = "d" };
      Oracle.Fiber_crash { fiber = "f"; exn_text = "boom" };
      Oracle.Stuck_iterator { iteration = 1; semantics = "immutable" };
      Oracle.Steps_exhausted { steps = 9 };
      Oracle.Leaked_fibers { count = 2; fibers = [ "a"; "b" ] };
      Oracle.Lost_rpc { count = 3 };
    ]
  in
  List.iter
    (fun issue ->
      match Weakset_obs.Json.of_string_opt (Oracle.issue_to_json issue) with
      | None -> Alcotest.fail "issue JSON did not parse"
      | Some json -> (
          match Oracle.issue_of_json json with
          | Error e -> Alcotest.failf "issue JSON did not decode: %s" e
          | Ok issue' ->
              check_string "issue round-trips" (Oracle.describe issue) (Oracle.describe issue')))
    issues

let test_oracle_same_failure_is_category_overlap () =
  let spec i =
    Oracle.Spec_violation { iteration = i; semantics = "optimistic"; where = "[y]"; message = "n" }
  in
  check_bool "same category overlaps" true (Oracle.same_failure [ spec 0 ] [ spec 5 ]);
  check_bool "disjoint categories do not" false
    (Oracle.same_failure [ spec 0 ] [ Oracle.Lost_rpc { count = 1 } ]);
  check_bool "empty lists never overlap" false (Oracle.same_failure [] [])

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "weakset_vopr"
    [
      ( "gen",
        Alcotest.test_case "shape sanity" `Quick test_gen_shape_sanity
        :: qcheck
             [
               prop_generate_deterministic;
               prop_config_stream_independent;
               prop_plan_json_roundtrip;
             ] );
      ( "runner",
        [
          Alcotest.test_case "digest-stable re-execution" `Quick test_execute_digest_stable;
          Alcotest.test_case "bundle JSON roundtrip" `Quick test_bundle_roundtrip;
          Alcotest.test_case "replay reproduces" `Quick test_replay_reproduces;
          Alcotest.test_case "replay uses the recorded step cap" `Quick
            test_replay_uses_recorded_step_cap;
          Alcotest.test_case "mutation disarmed after a raise" `Quick
            test_mutation_disarmed_after_raise;
        ] );
      ( "mutation",
        Alcotest.test_case "clean swarm without bug" `Quick test_swarm_clean_without_bug
        :: List.map
             (fun (name, mutation, convicts) ->
               Alcotest.test_case name `Quick
                 (test_swarm_finds_shrinks_and_replays mutation convicts))
             mutation_cases );
      ( "shrink",
        [
          Alcotest.test_case "minimizes to the single decisive op" `Quick
            test_shrink_minimizes_to_single_op;
          Alcotest.test_case "halves fault windows to the floor" `Quick
            test_shrink_halves_fault_window_to_floor;
          Alcotest.test_case "rejects category drift" `Quick test_shrink_rejects_category_drift;
          Alcotest.test_case "budget bound and empty-issue validation" `Quick
            test_shrink_budget_and_validation;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "issue JSON roundtrip" `Quick test_oracle_issue_json_roundtrip;
          Alcotest.test_case "same_failure = category overlap" `Quick
            test_oracle_same_failure_is_category_overlap;
        ] );
    ]
