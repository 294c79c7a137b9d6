(* VOPR-style deterministic simulation fuzzer for the weak-set stack.

     weakset_vopr run --seeds 0..32          -- bounded swarm (CI smoke)
     weakset_vopr run --seed 7 --mutation grow-only-drop
                                             -- one seed, planted bug armed
     weakset_vopr replay bundle.json         -- byte-identical reproduction
     weakset_vopr shrink bundle.json -o min.json

   Every run is a pure function of its seed: the same seed produces the
   same cluster, workload, fault schedule and — via the chained event
   digest — the same trace fingerprint.  Failing seeds are shrunk with
   delta debugging and written as JSON repro bundles. *)

module Gen = Weakset_vopr.Gen
module Oracle = Weakset_vopr.Oracle
module Runner = Weakset_vopr.Runner
module Shrink = Weakset_vopr.Shrink
module Scenario = Weakset_vopr.Scenario
module Mutation = Weakset_obs.Mutation

let usage =
  "usage: weakset_vopr COMMAND [options]\n\n\
   commands:\n\
  \  run        sweep seeds, judge each run, bundle (shrunk) failures\n\
  \  replay     re-execute a repro bundle and verify digest + verdict\n\
  \  shrink     minimise a repro bundle's schedule\n\
  \  scenarios  run the table-driven replication-group cluster scenarios\n\n\
   run options:\n\
  \  --seeds A..B         half-open seed range [A, B)  (e.g. 0..32)\n\
  \  --seed N             a single seed (may repeat)\n\
  \  --step-cap N         engine step budget per run (default 1000000)\n\
  \  --bundle-dir DIR     write vopr-seed-N.json for each failing seed\n\
  \  --blackbox-dir DIR   write blackbox-seed-N-K.json flight dumps for failures\n\
  \  --no-shrink          bundle the original, unshrunk schedule\n\
  \  --mutation NAME      arm a planted bug (mutation test; see below)\n\
  \  --quiet              only print failures and the summary\n\n\
   replay options:\n\
  \  BUNDLE               repro bundle written by run/shrink/scenarios; its\n\
  \                       mutation and step cap are used\n\n\
   shrink options (the bundle must replay first):\n\
  \  --max-runs N         candidate execution budget (default 200)\n\
  \  -o FILE              output bundle (default: overwrite input)\n\
  \  BUNDLE               repro bundle to minimise\n\n\
   scenarios options:\n\
  \  --only NAME          run only this scenario (may repeat)\n\
  \  --list               print the table and exit\n\
  \  --step-cap N         engine step budget per execution (default 1000000)\n\
  \  --bundle-dir DIR     write scenario-NAME.json for each failing row\n\
  \  --mutation NAME      arm a planted bug (mutation test; see below)\n\
  \  --quiet              only print failures and the summary\n\n\
   mutations (the command that reaches each is in parentheses):\n"
  ^ String.concat ""
      (List.map
         (fun m -> Printf.sprintf "  %-20s %s\n" (Mutation.to_string m) (Mutation.describe m))
         Mutation.all)

let usage_die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_string ("weakset_vopr: " ^ s ^ "\n\n" ^ usage);
      exit 2)
    fmt

let parse_seeds spec =
  match String.index_opt spec '.' with
  | Some i
    when i + 1 < String.length spec
         && spec.[i + 1] = '.'
         && (not (String.contains spec '-'))
         && i > 0 -> (
      let lo = String.sub spec 0 i in
      let hi = String.sub spec (i + 2) (String.length spec - i - 2) in
      match (Int64.of_string_opt lo, Int64.of_string_opt hi) with
      | Some a, Some b when b >= a ->
          List.init (Int64.to_int (Int64.sub b a)) (fun k -> Int64.add a (Int64.of_int k))
      | _ -> usage_die "--seeds expects A..B with integers B >= A, got %S" spec)
  | _ -> usage_die "--seeds expects a range A..B, got %S" spec

let int_arg flag v =
  match int_of_string_opt v with
  | Some n when n > 0 -> n
  | _ -> usage_die "%s expects a positive integer, got %S" flag v

let mutation_arg v =
  match Mutation.of_string v with
  | Some m -> m
  | None -> usage_die "--mutation: unknown mutation %S" v

let armed_suffix = function
  | None -> ""
  | Some m -> Printf.sprintf " [mutation %s armed]" (Mutation.to_string m)

(* ------------------------------------------------------------------ *)
(* Options of run and scenarios                                       *)
(* ------------------------------------------------------------------ *)

type opts = {
  mutable seeds : int64 list;  (** run; reverse accumulation order *)
  mutable only : string list;  (** scenarios; reverse accumulation order *)
  mutable list : bool;  (** scenarios *)
  mutable step_cap : int option;
  mutable bundle_dir : string option;
  mutable blackbox_dir : string option;  (** run *)
  mutable no_shrink : bool;  (** run *)
  mutable mutation : Mutation.t option;
  mutable quiet : bool;
}

(* [cmd] is "run" or "scenarios"; the other command's flags are unknown
   arguments. *)
let parse_opts cmd args =
  let o =
    {
      seeds = [];
      only = [];
      list = false;
      step_cap = None;
      bundle_dir = None;
      blackbox_dir = None;
      no_shrink = false;
      mutation = None;
      quiet = false;
    }
  in
  let other =
    if String.equal cmd "run" then [ "--only"; "--list" ]
    else [ "--seeds"; "--seed"; "--blackbox-dir"; "--no-shrink" ]
  in
  let rec go = function
    | [] -> ()
    | a :: _ when List.mem a other -> usage_die "%s: unknown argument %S" cmd a
    | "--seeds" :: v :: rest ->
        o.seeds <- List.rev_append (parse_seeds v) o.seeds;
        go rest
    | "--seed" :: v :: rest -> (
        match Int64.of_string_opt v with
        | Some s ->
            o.seeds <- s :: o.seeds;
            go rest
        | None -> usage_die "--seed expects an integer, got %S" v)
    | "--only" :: v :: rest ->
        o.only <- v :: o.only;
        go rest
    | "--list" :: rest ->
        o.list <- true;
        go rest
    | "--step-cap" :: v :: rest ->
        o.step_cap <- Some (int_arg "--step-cap" v);
        go rest
    | "--bundle-dir" :: v :: rest ->
        o.bundle_dir <- Some v;
        go rest
    | "--blackbox-dir" :: v :: rest ->
        o.blackbox_dir <- Some v;
        go rest
    | "--no-shrink" :: rest ->
        o.no_shrink <- true;
        go rest
    | "--mutation" :: v :: rest ->
        o.mutation <- Some (mutation_arg v);
        go rest
    | "--quiet" :: rest ->
        o.quiet <- true;
        go rest
    | [
        (( "--seeds" | "--seed" | "--only" | "--step-cap" | "--bundle-dir" | "--blackbox-dir"
         | "--mutation" ) as flag);
      ] ->
        usage_die "%s expects an argument" flag
    | a :: _ -> usage_die "%s: unknown argument %S" cmd a
  in
  go args;
  o.seeds <- List.rev o.seeds;
  o.only <- List.rev o.only;
  o

(* ------------------------------------------------------------------ *)
(* run                                                                *)
(* ------------------------------------------------------------------ *)

let cmd_run args =
  let o = parse_opts "run" args in
  if o.seeds = [] then usage_die "run: no seeds given (use --seeds A..B or --seed N)";
  let execute p = Runner.execute ?step_cap:o.step_cap ?mutation:o.mutation p in
  let failures = ref 0 in
  let progress seed (r : Runner.result) =
    if r.issues = [] then begin
      if not o.quiet then
        Printf.printf "seed %Ld: PASS  (%d events, digest %s)\n%!" seed r.events
          (String.sub r.digest 0 12)
    end
    else begin
      incr failures;
      Printf.printf "seed %Ld: FAIL  (%d events)\n%!" seed r.events;
      List.iter (fun i -> Printf.printf "  - %s\n%!" (Oracle.describe i)) r.issues;
      let bundled =
        if o.no_shrink then r
        else begin
          let run p = (execute p).issues in
          let plan', _issues', st = Shrink.minimize ~run ~issues:r.issues r.plan in
          let r' = execute plan' in
          Printf.printf "  shrunk %d -> %d schedule events in %d runs\n%!" st.initial_events
            st.final_events st.runs;
          r'
        end
      in
      Option.iter
        (fun dir ->
          let path = Filename.concat dir (Printf.sprintf "vopr-seed-%Ld.json" seed) in
          Runner.write_bundle ~path (Runner.bundle_of_result bundled);
          Printf.printf "  bundle: %s\n%!" path)
        o.bundle_dir;
      (* Flight dumps of the original failing run: the incident's own
         forensics, before shrinking rewrote the schedule. *)
      Option.iter
        (fun dir ->
          List.iteri
            (fun k (d : Weakset_obs.Flight.dump) ->
              let path =
                Filename.concat dir (Printf.sprintf "blackbox-seed-%Ld-%d.json" seed k)
              in
              let oc = open_out path in
              output_string oc d.d_json;
              output_char oc '\n';
              close_out oc;
              Printf.printf "  blackbox: %s (%s)\n%!" path
                (Weakset_obs.Flight.cause_label d.d_cause))
            r.blackbox)
        o.blackbox_dir
    end
  in
  let results = Runner.sweep ?step_cap:o.step_cap ?mutation:o.mutation ~progress o.seeds in
  Printf.printf "vopr: %d seed(s), %d failure(s)%s\n%!" (List.length results) !failures
    (armed_suffix o.mutation);
  exit (if !failures > 0 then 1 else 0)

(* ------------------------------------------------------------------ *)
(* replay                                                             *)
(* ------------------------------------------------------------------ *)

let refuse fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("weakset_vopr: " ^ s);
      exit 1)
    fmt

let load_bundle path =
  match Runner.read_bundle ~path with
  | Ok b -> b
  | Error m -> refuse "cannot load %s: %s" path m

(* Replays [b] and prints the outcome; true iff it reproduced. *)
let replay_and_report (b : Runner.bundle) =
  match Runner.replay b with
  | Runner.Reproduced r ->
      Printf.printf "reproduced: seed %Ld%s, digest %s over %d events, %d issue(s)\n"
        b.b_plan.Gen.seed (armed_suffix b.b_mutation) r.b_digest r.b_events
        (List.length r.b_issues);
      List.iter (fun i -> Printf.printf "  - %s\n" (Oracle.describe i)) r.b_issues;
      true
  | Runner.Digest_mismatch got ->
      Printf.printf "DIGEST MISMATCH: expected %s over %d events, got %s over %d events\n"
        b.b_digest b.b_events got.b_digest got.b_events;
      false
  | Runner.Verdict_mismatch got ->
      Printf.printf "VERDICT MISMATCH: digest matches but issues differ\n";
      Printf.printf "  recorded:\n";
      List.iter (fun i -> Printf.printf "    - %s\n" (Oracle.describe i)) b.b_issues;
      Printf.printf "  replayed:\n";
      List.iter (fun i -> Printf.printf "    - %s\n" (Oracle.describe i)) got.b_issues;
      false

let cmd_replay args =
  let path =
    match args with
    | [] -> usage_die "replay: no bundle given"
    | a :: _ when String.length a > 0 && a.[0] = '-' -> usage_die "replay: unknown option %S" a
    | [ path ] -> path
    | _ -> usage_die "replay: more than one bundle given"
  in
  let b = load_bundle path in
  exit (if replay_and_report b then 0 else 1)

(* ------------------------------------------------------------------ *)
(* shrink                                                             *)
(* ------------------------------------------------------------------ *)

type shrink_opts = {
  mutable s_max_runs : int option;
  mutable s_out : string option;
  mutable s_bundle : string option;
}

let parse_shrink_args args =
  let o = { s_max_runs = None; s_out = None; s_bundle = None } in
  let rec go = function
    | [] -> ()
    | "--max-runs" :: v :: rest ->
        o.s_max_runs <- Some (int_arg "--max-runs" v);
        go rest
    | "-o" :: v :: rest ->
        o.s_out <- Some v;
        go rest
    | [ (("--max-runs" | "-o") as flag) ] -> usage_die "%s expects an argument" flag
    | a :: _ when String.length a > 0 && a.[0] = '-' -> usage_die "shrink: unknown option %S" a
    | path :: rest ->
        if o.s_bundle <> None then usage_die "shrink: more than one bundle given";
        o.s_bundle <- Some path;
        go rest
  in
  go args;
  o

let cmd_shrink args =
  let o = parse_shrink_args args in
  let path = match o.s_bundle with Some p -> p | None -> usage_die "shrink: no bundle given" in
  let b = load_bundle path in
  let issues =
    match b.b_issues with
    | [] -> refuse "bundle records a passing run; nothing to shrink"
    | l -> l
  in
  (* Shrinking a bundle that does not reproduce would chase a failure
     this build cannot see, and could write a passing bundle. *)
  if not (replay_and_report b) then refuse "bundle does not replay; not shrinking %s" path;
  let execute p = Runner.execute ~step_cap:b.b_step_cap ?mutation:b.b_mutation p in
  let run p = (execute p).issues in
  let plan', _, st = Shrink.minimize ?max_runs:o.s_max_runs ~run ~issues b.b_plan in
  let r' = execute plan' in
  Printf.printf "shrunk %d -> %d schedule events (%d candidate runs, %d kept)\n"
    st.initial_events st.final_events st.runs st.kept;
  let out = Option.value o.s_out ~default:path in
  if r'.issues = [] then refuse "shrunk plan passes; not writing %s" out;
  Runner.write_bundle ~path:out (Runner.bundle_of_result r');
  Printf.printf "bundle: %s (%d issue(s))\n" out (List.length r'.issues);
  exit 0

(* ------------------------------------------------------------------ *)
(* scenarios                                                          *)
(* ------------------------------------------------------------------ *)

let cmd_scenarios args =
  let o = parse_opts "scenarios" args in
  if o.list then begin
    List.iter
      (fun (s : Scenario.t) ->
        Printf.printf "%-28s %d replicas, %.0fs, %d steps\n" s.name
          (s.plan.config.nodes - 1) s.plan.budget (Gen.event_count s.plan))
      Scenario.table;
    exit 0
  end;
  let rows =
    match o.only with
    | [] -> Scenario.table
    | names ->
        List.map
          (fun n ->
            match Scenario.find n with
            | Some s -> s
            | None -> usage_die "scenarios: unknown scenario %S (see --list)" n)
          names
  in
  let failures = ref 0 in
  List.iter
    (fun row ->
      let outcome = Scenario.run ?step_cap:o.step_cap ?mutation:o.mutation row in
      let ok = Scenario.passed outcome in
      if not ok then incr failures;
      if (not ok) || not o.quiet then
        Format.printf "%a@." Scenario.pp_outcome outcome;
      if not ok then
        Option.iter
          (fun dir ->
            let path = Filename.concat dir (Printf.sprintf "scenario-%s.json" outcome.o_name) in
            Runner.write_bundle ~path (Runner.bundle_of_result outcome.o_run);
            Printf.printf "  bundle: %s\n%!" path)
          o.bundle_dir)
    rows;
  Printf.printf "scenarios: %d row(s), %d failure(s)%s\n%!" (List.length rows) !failures
    (armed_suffix o.mutation);
  exit (if !failures > 0 then 1 else 0)

let main () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> cmd_run rest
  | _ :: "replay" :: rest -> cmd_replay rest
  | _ :: "shrink" :: rest -> cmd_shrink rest
  | _ :: "scenarios" :: rest -> cmd_scenarios rest
  | _ :: (("--help" | "-h") :: _ | []) ->
      print_string usage;
      exit 0
  | _ :: cmd :: _ -> usage_die "unknown command %S" cmd
  | [] -> usage_die "no command"
