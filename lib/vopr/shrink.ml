type stats = {
  runs : int;
  kept : int;
  initial_events : int;
  final_events : int;
}

let drop_nth l n = List.filteri (fun i _ -> i <> n) l

(* Halve a fault's active window.  Returns [None] once the window drops
   under one time unit — and never lets the heal touch the start, which
   would trip [Fault.schedule_partition]'s validation. *)
let shorten_fault f =
  let half ~at ~heal =
    let d = (heal -. at) /. 2.0 in
    if d < 0.5 then None else Some (at +. d)
  in
  match f with
  | Gen.Crash { node; at; recover_at } ->
      Option.map
        (fun recover_at -> Gen.Crash { node; at; recover_at })
        (half ~at ~heal:recover_at)
  | Gen.Cut { a; b; at; heal_at } ->
      Option.map (fun heal_at -> Gen.Cut { a; b; at; heal_at }) (half ~at ~heal:heal_at)
  | Gen.Partition { groups; at; heal_at } ->
      Option.map (fun heal_at -> Gen.Partition { groups; at; heal_at }) (half ~at ~heal:heal_at)
  | Gen.Isolate { node; at; heal_at } ->
      Option.map (fun heal_at -> Gen.Isolate { node; at; heal_at }) (half ~at ~heal:heal_at)
  | Gen.Storm { at; until; clients; every } ->
      Option.map (fun until -> Gen.Storm { at; until; clients; every }) (half ~at ~heal:until)
  (* A herd has no window; its size is the spike itself, so halve that. *)
  | Gen.Herd { at; clients; burst } ->
      if clients <= 1 && burst <= 1 then None
      else
        Some
          (Gen.Herd
             { at; clients = max 1 ((clients + 1) / 2); burst = max 1 ((burst + 1) / 2) })

let minimize ?(max_runs = 200) ~run ~issues plan =
  if issues = [] then invalid_arg "Vopr.Shrink.minimize: issue list is empty";
  let runs = ref 0 and kept = ref 0 in
  let current = ref plan and current_issues = ref issues in
  (* Keep a candidate iff it still fails with an overlapping category —
     the original verdict is the fixed target, so shrinking cannot drift
     onto an unrelated failure. *)
  let try_candidate cand =
    incr runs;
    let cand_issues = run cand in
    if cand_issues <> [] && Oracle.same_failure issues cand_issues then begin
      incr kept;
      current := cand;
      current_issues := cand_issues;
      true
    end
    else false
  in
  let budget_left () = !runs < max_runs in
  let progress = ref true in
  while !progress && budget_left () do
    progress := false;
    (* Pass 1: drop workload ops one at a time.  On success the same
       index now names the next op, so only advance on failure. *)
    let i = ref 0 in
    while !i < List.length !current.Gen.ops && budget_left () do
      let p = !current in
      if try_candidate { p with Gen.ops = drop_nth p.Gen.ops !i } then progress := true
      else incr i
    done;
    (* Pass 2: drop fault events one at a time. *)
    let i = ref 0 in
    while !i < List.length !current.Gen.faults && budget_left () do
      let p = !current in
      if try_candidate { p with Gen.faults = drop_nth p.Gen.faults !i } then progress := true
      else incr i
    done;
    (* Pass 3: shorten fault windows.  A success re-tries the same fault
       (halving again); shortening bottoms out below one time unit. *)
    let i = ref 0 in
    while !i < List.length !current.Gen.faults && budget_left () do
      let p = !current in
      let kept_one =
        match shorten_fault (List.nth p.Gen.faults !i) with
        | None -> false
        | Some f' ->
            try_candidate
              { p with Gen.faults = List.mapi (fun j f -> if j = !i then f' else f) p.Gen.faults }
      in
      if kept_one then progress := true else incr i
    done
  done;
  ( !current,
    !current_issues,
    {
      runs = !runs;
      kept = !kept;
      initial_events = Gen.event_count plan;
      final_events = Gen.event_count !current;
    } )
