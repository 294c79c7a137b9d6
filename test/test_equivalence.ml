(* Old-vs-new checker equivalence: the parametric visibility engine
   (Weakset_spec.Visibility, reached through Figures.check) must return
   the same verdict — violation by violation, field by field — as the
   frozen pre-refactor checker (Figures_legacy) on every spec the legacy
   checker could judge, i.e. all eight figure configs (the lin spec is
   new; the legacy checker has no snapshot vintage and is out of its
   domain there).

   Two corpora:
   - hand-built traces covering every behaviour class the checkers
     discriminate (clean drains, stray/duplicate yields, failures with
     and without obligations, mid-run mutation, inaccessible members,
     early returns), each judged under all eight specs;
   - real recorded computations from the VOPR swarm, seeds 0..63 — the
     same seed range the CI smoke sweeps — re-judged by both checkers. *)

open Weakset_spec

let e i = Elem.make i
let eset l = Elem.Set.of_list (List.map e l)

(* Trace-building DSL (same shape as test_spec's). *)

type step =
  | Yield of int
  | Ret
  | Fail
  | Mut_add of int
  | Mut_remove of int
  | Acc of int list

let build ?acc0 ~s0 steps =
  let mentioned =
    List.concat_map
      (function
        | Yield i | Mut_add i | Mut_remove i -> [ i ]
        | Acc l -> l
        | Ret | Fail -> [])
      steps
    @ s0
  in
  let comp = Computation.create () in
  let time = ref 0.0 in
  let tick () =
    time := !time +. 1.0;
    !time
  in
  let s = ref (eset s0) in
  let acc = ref (match acc0 with Some l -> eset l | None -> eset mentioned) in
  let yielded = ref Elem.Set.empty in
  Computation.append comp ~time:(tick ()) ~kind:Sstate.First ~s:!s ~accessible:!acc
    ~yielded:!yielded;
  let inv = ref 0 in
  let invocation term =
    let i = !inv in
    incr inv;
    Computation.append comp ~time:(tick ()) ~kind:(Sstate.Invocation_pre i) ~s:!s
      ~accessible:!acc ~yielded:!yielded;
    (match term with
    | Sstate.Suspends el -> yielded := Elem.Set.add el !yielded
    | Sstate.Returns | Sstate.Fails -> ());
    Computation.append comp ~time:(tick ())
      ~kind:(Sstate.Invocation_post (i, term))
      ~s:!s ~accessible:!acc ~yielded:!yielded
  in
  List.iter
    (function
      | Yield i -> invocation (Sstate.Suspends (e i))
      | Ret -> invocation Sstate.Returns
      | Fail -> invocation Sstate.Fails
      | Mut_add i ->
          s := Elem.Set.add (e i) !s;
          Computation.append comp ~time:(tick ())
            ~kind:(Sstate.Mutation (Sstate.Madd (e i)))
            ~s:!s ~accessible:!acc ~yielded:!yielded
      | Mut_remove i ->
          s := Elem.Set.remove (e i) !s;
          Computation.append comp ~time:(tick ())
            ~kind:(Sstate.Mutation (Sstate.Mremove (e i)))
            ~s:!s ~accessible:!acc ~yielded:!yielded
      | Acc l -> acc := eset l)
    steps;
  comp

(* ------------------------------------------------------------------ *)
(* Field-by-field verdict equality                                    *)
(* ------------------------------------------------------------------ *)

let kind_eq a b =
  match (a, b) with
  | Sstate.First, Sstate.First -> true
  | Sstate.Invocation_pre i, Sstate.Invocation_pre j -> i = j
  | Sstate.Invocation_post (i, ta), Sstate.Invocation_post (j, tb) ->
      i = j
      && (match (ta, tb) with
         | Sstate.Suspends x, Sstate.Suspends y -> Elem.equal x y
         | Sstate.Returns, Sstate.Returns | Sstate.Fails, Sstate.Fails -> true
         | _ -> false)
  | Sstate.Mutation (Sstate.Madd x), Sstate.Mutation (Sstate.Madd y)
  | Sstate.Mutation (Sstate.Mremove x), Sstate.Mutation (Sstate.Mremove y) ->
      Elem.equal x y
  | _ -> false

let state_eq a b =
  a.Sstate.index = b.Sstate.index
  && a.Sstate.time = b.Sstate.time
  && kind_eq a.Sstate.kind b.Sstate.kind
  && Elem.Set.equal a.Sstate.s_value b.Sstate.s_value
  && Elem.Set.equal a.Sstate.accessible b.Sstate.accessible
  && Elem.Set.equal a.Sstate.yielded b.Sstate.yielded

let violation_eq a b =
  String.equal a.Figures.where b.Figures.where
  && String.equal a.Figures.message b.Figures.message
  && match (a.Figures.state, b.Figures.state) with
     | None, None -> true
     | Some x, Some y -> state_eq x y
     | _ -> false

let verdict_eq a b =
  match (a, b) with
  | Figures.Conforms, Figures.Conforms -> true
  | Figures.Violates va, Figures.Violates vb ->
      List.length va = List.length vb && List.for_all2 violation_eq va vb
  | _ -> false

let pp_verdict_str v = Format.asprintf "%a" Figures.pp_verdict v

(* Every spec the legacy checker can judge: all the figure configs.  The
   lin spec is excluded by construction — its snapshot vintage predates
   nothing; the legacy checker never had it. *)
let legacy_domain =
  List.filter (fun s -> s.Figures.vintage <> Figures.Snapshot_vintage) Figures.all_specs

let assert_equivalent ~what comp =
  List.iter
    (fun spec ->
      let legacy = Figures_legacy.check spec comp in
      let fresh = Figures.check spec comp in
      if not (verdict_eq legacy fresh) then
        Alcotest.failf "%s under %s: legacy %s but new engine %s" what spec.Figures.spec_name
          (pp_verdict_str legacy) (pp_verdict_str fresh))
    legacy_domain

(* ------------------------------------------------------------------ *)
(* Hand-built corpus                                                  *)
(* ------------------------------------------------------------------ *)

let hand_traces =
  [
    ("clean full drain", build ~s0:[ 1; 2; 3 ] [ Yield 1; Yield 2; Yield 3; Ret ]);
    ("empty set immediate return", build ~s0:[] [ Ret ]);
    ("stray yield outside s", build ~s0:[ 1; 2 ] [ Yield 1; Yield 7; Ret ]);
    ("duplicate yield", build ~s0:[ 1; 2 ] [ Yield 1; Yield 1; Yield 2; Ret ]);
    ("fail with obligations accessible", build ~s0:[ 1; 2; 3 ] [ Yield 1; Fail ]);
    ( "fail only after inaccessibility",
      build ~s0:[ 1; 2; 3 ] [ Yield 1; Acc [ 1 ]; Fail ] );
    ("early return with obligations", build ~s0:[ 1; 2; 3 ] [ Yield 1; Ret ]);
    ( "return once remainder inaccessible",
      build ~s0:[ 1; 2; 3 ] [ Yield 1; Yield 2; Acc [ 1; 2 ]; Ret ] );
    ( "concurrent add observed",
      build ~s0:[ 1; 2 ] [ Yield 1; Mut_add 9; Yield 9; Yield 2; Ret ] );
    ( "concurrent add ignored",
      build ~s0:[ 1; 2 ] [ Yield 1; Mut_add 9; Yield 2; Ret ] );
    ( "yield then removed (stale window)",
      build ~s0:[ 1; 2; 3 ] [ Yield 1; Mut_remove 1; Yield 2; Yield 3; Ret ] );
    ( "removed then yielded anyway",
      build ~s0:[ 1; 2; 3 ] [ Mut_remove 3; Yield 3; Yield 1; Yield 2; Ret ] );
    ( "add and remove churn, completes",
      build ~s0:[ 1; 2 ]
        [ Yield 1; Mut_add 5; Mut_remove 2; Yield 5; Mut_add 6; Yield 6; Ret ] );
    ("suspend forever (no termination)", build ~s0:[ 1; 2; 3 ] [ Yield 1; Yield 2 ]);
    ("fails immediately", build ~s0:[ 1; 2 ] [ Fail ]);
    ( "shrinking set violates grow-only",
      build ~s0:[ 1; 2; 3 ] [ Yield 1; Mut_remove 2; Yield 3; Ret ] );
  ]

let test_hand_corpus () =
  List.iter (fun (what, comp) -> assert_equivalent ~what comp) hand_traces

(* The planted axiom mutation lives only in the new engine (the frozen
   legacy copy predates it), so arming it must BREAK equivalence — that
   divergence is exactly what proves the regression suite is sensitive
   to a single axiom edit, the same property the VOPR mutation test
   checks end-to-end. *)
let test_planted_breaks_equivalence () =
  let comp = build ~s0:[ 1 ] [ Yield 1; Ret ] in
  let legacy = Figures_legacy.check Figures.fig1 comp in
  let armed =
    Weakset_obs.Mutation.(with_armed (Some Axiom_flip)) (fun () ->
        Figures.check Figures.fig1 comp)
  in
  Alcotest.(check bool) "armed axiom flip diverges from legacy" false (verdict_eq legacy armed);
  Alcotest.(check bool)
    "disarmed, the engines agree again" true
    (verdict_eq legacy (Figures.check Figures.fig1 comp))

(* ------------------------------------------------------------------ *)
(* VOPR corpus: recorded computations from the CI seed range          *)
(* ------------------------------------------------------------------ *)

let test_vopr_corpus () =
  let seeds = List.init 64 Int64.of_int in
  let judged = ref 0 in
  List.iter
    (fun seed ->
      let r = Weakset_vopr.Runner.execute (Weakset_vopr.Gen.generate seed) in
      List.iter
        (fun (it : Weakset_vopr.Oracle.iteration_input) ->
          if it.spec.Figures.vintage <> Figures.Snapshot_vintage then begin
            incr judged;
            assert_equivalent
              ~what:(Printf.sprintf "seed %Ld iteration %d (%s)" seed it.index it.semantics)
              it.computation
          end)
        r.Weakset_vopr.Runner.iterations)
    seeds;
  (* The corpus must actually exercise the checkers: a swarm this size
     records hundreds of iterations. *)
  Alcotest.(check bool)
    (Printf.sprintf "corpus is non-trivial (%d computations judged)" !judged)
    true (!judged > 100)

let () =
  Alcotest.run "weakset_equivalence"
    [
      ( "equivalence",
        [
          Alcotest.test_case "hand-built corpus, all eight specs" `Quick test_hand_corpus;
          Alcotest.test_case "planted axiom flip breaks equivalence" `Quick
            test_planted_breaks_equivalence;
          Alcotest.test_case "VOPR corpus seeds 0..63" `Slow test_vopr_corpus;
        ] );
    ]
