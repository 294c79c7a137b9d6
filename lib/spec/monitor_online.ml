module Event = Weakset_obs.Event
module Bus = Weakset_obs.Bus

type t = {
  spec : Figures.spec;
  config : Visibility.config;  (* the spec's design point, judged by the unified engine *)
  set_id : int;
  monitor : Monitor.t;
  bus : Bus.t option;
  on_violation : (time:float -> Figures.violation -> unit) option;
  sample_every : int;
  mutable observes : int;       (* Spec_observe events for our set *)
  mutable full_checks : int;
  mutable prev_s : Elem.Set.t option;  (* last state's s, for the incremental check *)
  seen : (string, unit) Hashtbl.t;     (* dedupe keys *)
  mutable found : Figures.violation list;  (* newest first *)
  mutable finished : bool;
}

let create ?bus ?on_violation ?(sample_every = 16) ~set_id spec =
  if sample_every <= 0 then invalid_arg "Monitor_online.create: sample_every <= 0";
  {
    spec;
    config = Figures.config_of spec;
    set_id;
    monitor = Monitor.create ~set_id;
    bus;
    on_violation;
    sample_every;
    observes = 0;
    full_checks = 0;
    prev_s = None;
    seen = Hashtbl.create 16;
    found = [];
    finished = false;
  }

let computation t = Monitor.computation t.monitor

let viol_key (v : Figures.violation) =
  Printf.sprintf "%s|%s|%d" v.where v.message
    (match v.state with None -> -1 | Some st -> st.Sstate.index)

(* Record a violation if unseen; publish it as a Spec_violation event
   and fire the direct trigger hook (flight recorders and judges that
   want the structured violation, not the event rendering). *)
let note t ~time (v : Figures.violation) =
  let key = viol_key v in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.replace t.seen key ();
    t.found <- v :: t.found;
    (match t.bus with
    | None -> ()
    | Some bus ->
        Bus.emit bus ~time
          (Event.Spec_violation
             { set_id = t.set_id; where = v.where; message = v.message }));
    match t.on_violation with None -> () | Some f -> f ~time v
  end

let full_check t ~time =
  t.full_checks <- t.full_checks + 1;
  match Visibility.check t.config (computation t) with
  | Visibility.Conforms -> ()
  | Visibility.Violates vs -> List.iter (note t ~time) vs

(* The constraint clauses are reflexive and transitive, so checking each
   new state against its predecessor is exactly the pairwise check — this
   is the cheap always-on part.  Everything else (ensures clauses,
   yielded discipline, optimistic guarantees) runs on the sampled full
   checks and once more at [finish]. *)
let incremental_constraint t ~time =
  match (t.config.Visibility.scope, Computation.last_state (computation t)) with
  | Visibility.During_run, _ | _, None -> ()
  | Visibility.All_pairs, Some last ->
      let cur = last.Sstate.s_value in
      (match t.prev_s with
      | Some prev
        when not (Constraint_clause.holds_between t.config.Visibility.constraint_ prev cur)
        ->
          note t ~time
            {
              Figures.where = Constraint_clause.name t.config.Visibility.constraint_;
              state = Some last;
              message = "set value violated the type constraint";
            }
      | _ -> ());
      t.prev_s <- Some cur

let handle t (ev : Event.t) =
  if t.finished then invalid_arg "Monitor_online.handle: already finished";
  match ev.kind with
  | Event.Spec_observe { set_id; _ } when set_id = t.set_id ->
      Monitor.handle t.monitor ev;
      t.observes <- t.observes + 1;
      incremental_constraint t ~time:ev.time;
      if t.observes mod t.sample_every = 0 then full_check t ~time:ev.time
  | _ -> ()

let sink t = handle t

let finish t ~time =
  if not t.finished then begin
    full_check t ~time;
    t.finished <- true
  end;
  Visibility.check t.config (computation t)

let violations t = List.rev t.found

let full_checks t = t.full_checks

let observes t = t.observes
