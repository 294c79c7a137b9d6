(* The traced run's recorders: host-time spans around each call the
   benchmark makes into a layer, and host time per fiber run slice.

   Both only read: spans live in the benchmark's own memory, and the
   slice sink looks at Run_begin/Run_end events without emitting any, so
   the simulation a traced run drives is the untraced one exactly. *)

open Weakset_obs

type span = { id : int; parent : int; name : string; t0 : float; mutable t1 : float }

let on = ref false
let spans : span list ref = ref [] (* newest first *)
let stack : int list ref = ref []
let next_id = ref 0

let slice_totals : (string, float) Hashtbl.t = Hashtbl.create 8

let reset () =
  spans := [];
  stack := [];
  next_id := 0;
  Hashtbl.reset slice_totals

(* [with_span name f] times [f] as a child of the innermost open span.
   A no-op wrapper when tracing is off.  Calls that park a fiber keep
   their span open, so the host time other fibers run meanwhile is part
   of it — the wait the caller sees. *)
let with_span name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { id = !next_id; parent; name; t0 = Measure.now (); t1 = nan } in
    incr next_id;
    spans := s :: !spans;
    stack := s.id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Measure.now ();
        stack := List.tl !stack)
      f
  end

(* Per span name: (count, total seconds, self seconds), where self time
   is the span minus the part of it its children cover. *)
let by_name () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
      Hashtbl.replace child s.parent (prev +. (s.t1 -. s.t0)))
    !spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let dur = s.t1 -. s.t0 in
      let self = dur -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let c, d, sf = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (c + 1, d +. dur, sf +. self))
    !spans;
  Hashtbl.fold (fun name v l -> (name, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* One JSON object per span, oldest first, times relative to the first. *)
let write_jsonl path =
  let all = List.rev !spans in
  let base = match all with s :: _ -> s.t0 | [] -> 0.0 in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f}\n" s.id
        s.parent s.name (s.t0 -. base) (s.t1 -. base))
    all;
  close_out oc

(* --- host time per fiber, grouped by name prefix ------------------- *)

let groups =
  [
    ("rpc-handler-", "handler");
    ("rpc-demux-", "demux");
    ("faultproc-", "fault");
    ("set-mutator", "mutator");
    ("measured-query", "iter");
    ("prefetch-", "prefetch");
  ]

let group_of fiber =
  match List.find_opt (fun (prefix, _) -> String.starts_with ~prefix fiber) groups with
  | Some (_, g) -> g
  | None -> "other"

let slice_open_at = ref nan

let slice_s g = Option.value ~default:0.0 (Hashtbl.find_opt slice_totals g)
let slices_total () = Hashtbl.fold (fun _ v acc -> acc +. v) slice_totals 0.0

(* Run slices never nest: a fiber runs until it parks, and the engine
   starts the next slice only from its own loop. *)
let slice_sink : Bus.sink =
 fun e ->
  match e.Event.kind with
  | Event.Run_begin _ -> slice_open_at := Measure.now ()
  | Event.Run_end { fiber; _ } ->
      let g = group_of fiber in
      Hashtbl.replace slice_totals g (slice_s g +. (Measure.now () -. !slice_open_at))
  | _ -> ()
