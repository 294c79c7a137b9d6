module Event = Weakset_obs.Event

type buffered_pre = { b_seq : int; b_time : float; b_s : Elem.Set.t; b_accessible : Elem.Set.t }

type t = {
  set_id : int;
  comp : Computation.t;
  mutable yielded : Elem.Set.t;
  mutable next_invocation : int;
  mutable pending : buffered_pre option;
}

let create ~set_id =
  {
    set_id;
    comp = Computation.create ();
    yielded = Elem.Set.empty;
    next_invocation = 0;
    pending = None;
  }

let computation t = t.comp
let yielded t = t.yielded
let completed_invocations t = t.next_invocation
let blocked t = Option.is_some t.pending

let append t ~time kind ~s ~accessible =
  Computation.append t.comp ~time ~kind ~s ~accessible ~yielded:t.yielded

(* Buffer an invocation's candidate pre-state, reserving its
   capture-order slot now: mutations observed while the invocation is in
   flight must order after this snapshot. *)
let buffer_pre t ~time ~s ~accessible =
  t.pending <-
    Some { b_seq = Computation.next_seq t.comp; b_time = time; b_s = s; b_accessible = accessible }

let complete t ~time term ~s ~accessible =
  match t.pending with
  | None -> invalid_arg "Monitor: no invocation in progress"
  | Some pre ->
      let i = t.next_invocation in
      t.next_invocation <- i + 1;
      t.pending <- None;
      Computation.append ~seq:pre.b_seq t.comp ~time:pre.b_time ~kind:(Sstate.Invocation_pre i)
        ~s:pre.b_s ~accessible:pre.b_accessible ~yielded:t.yielded;
      (match term with
      | Sstate.Suspends e -> t.yielded <- Elem.Set.add e t.yielded
      | Sstate.Returns | Sstate.Fails -> ());
      append t ~time (Sstate.Invocation_post (i, term)) ~s ~accessible

(* Events list elements in ascending id order, one per id, so successive
   adds build the set; [Elem.Set.of_list] would sort the list again. *)
let eset es = List.fold_left (fun acc e -> Elem.Set.add e acc) Elem.Set.empty es

let observe t ~time (kind : Event.kind) =
  match kind with
  | Event.Spec_observe { set_id; phase; s; accessible } when set_id = t.set_id -> (
      let s = eset s and accessible = eset accessible in
      match phase with
      | Event.Phase_first -> append t ~time Sstate.First ~s ~accessible
      | Event.Phase_invocation_start ->
          if Option.is_some t.pending then invalid_arg "Monitor: invocation already in progress";
          buffer_pre t ~time ~s ~accessible
      | Event.Phase_invocation_retry ->
          if Option.is_none t.pending then invalid_arg "Monitor: no invocation in progress";
          buffer_pre t ~time ~s ~accessible
      | Event.Phase_returns -> complete t ~time Sstate.Returns ~s ~accessible
      | Event.Phase_fails -> complete t ~time Sstate.Fails ~s ~accessible
      | Event.Phase_suspends e -> complete t ~time (Sstate.Suspends e) ~s ~accessible
      | Event.Phase_mutation (Event.Spec_add e) ->
          append t ~time (Sstate.Mutation (Sstate.Madd e)) ~s ~accessible
      | Event.Phase_mutation (Event.Spec_remove e) ->
          append t ~time (Sstate.Mutation (Sstate.Mremove e)) ~s ~accessible)
  | _ -> ()

let handle t (ev : Event.t) = observe t ~time:ev.time ev.kind
let sink = handle

let replay ~set_id events =
  let t = create ~set_id in
  List.iter (handle t) events;
  t
