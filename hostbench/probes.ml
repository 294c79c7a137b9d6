(* Isolated layer probes: one public function of one layer, called in a
   loop at the input sizes of the workload being measured.  Each reports
   host time and allocated words per call. *)

open Weakset_sim
open Weakset_net
open Weakset_store
open Weakset_obs
module Scn = Bench_lib.Scenarios

type sizes = {
  topos : Topology.t list;  (** the workload's topologies *)
  set_size : int;  (** members in the workload's set *)
  nodes : int;  (** nodes in the world the RPC and reachability probes build *)
  log_len : int;  (** directory log length spec-churn ends with on the run's seed *)
  spec_events : bool;  (** does the workload's event stream carry spec observations? *)
}

let out_dir = ".hostbench"

let scratch_file name =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Filename.concat out_dir name

let path_info topos =
  let pairs =
    List.concat_map
      (fun t ->
        let ns = Topology.nodes t in
        List.concat_map (fun a -> List.filter_map (fun b -> if a = b then None else Some (t, a, b)) ns) ns)
      topos
    |> Array.of_list
  in
  let i = ref 0 in
  Measure.per_call
    (Measure.repeat (fun () ->
         let t, a, b = pairs.(!i) in
         i := (!i + 1) mod Array.length pairs;
         ignore (Topology.path_info t a b)))

(* A directory whose log holds [len] ops: [min len members] adds, then a
   churn of two adds per remove. *)
let oid k = Oid.make ~num:k ~home:(Nodeid.of_int 1)

let build_directory ~members len =
  let d = Directory.create () in
  let next = ref 0 and live = Queue.create () in
  let add () =
    incr next;
    ignore (Directory.apply d (Directory.Add (oid !next)));
    Queue.push !next live
  in
  for i = 1 to len do
    if i <= members || i mod 3 <> 0 || Queue.is_empty live then add ()
    else ignore (Directory.apply d (Directory.Remove (oid (Queue.pop live))))
  done;
  d

let directory ~members len =
  let apply_ns, apply_words =
    Measure.per_call (Measure.repeat (fun () -> ignore (build_directory ~members len)))
  in
  let d = build_directory ~members len in
  let v = Version.to_int (Directory.version d) in
  let since = Measure.per_call (Measure.repeat (fun () -> ignore (Directory.ops_since d (Version.of_int (v - 1))))) in
  let at = Measure.per_call (Measure.repeat (fun () -> ignore (Directory.members_at d (Version.of_int (v / 2))))) in
  ((apply_ns /. float len, apply_words /. float len), since, at)

(* One representative event of each kind a run emits on its hot path;
   workloads that record specs add an observation carrying the whole
   set, which is what makes trace volume grow with set size. *)
let event_mix (s : sizes) =
  let elems = List.init s.set_size (fun i -> { Event.elem_id = i; elem_label = Printf.sprintf "n1:%d" i }) in
  [
    Event.Sched { at = 12.5 };
    Event.Run_begin { fid = 3; fiber = "rpc-handler-n0-17" };
    Event.Run_end { fid = 3; fiber = "rpc-handler-n0-17"; park = Event.Park_suspend };
    Event.Net_send { src = 7; dst = 0; lc = 41 };
    Event.Net_deliver { src = 7; dst = 0; sent_at = 12.5; send_lc = 41; lc = 42 };
    Event.Rpc_call { src = 7; dst = 0; id = 99; lc = 41; parent = Some 5 };
    Event.Rpc_done { src = 7; dst = 0; id = 99; outcome = Event.Rpc_ok; lc = 44 };
    Event.Span_start { span = 6; parent = Some 5; name = "rpc.serve.dir_read"; node = Some 0 };
    Event.Span_end { span = 6; name = "rpc.serve.dir_read"; node = Some 0; dur = 1.0 };
    Event.Store_op { node = 0; op = "dir_read"; parent = Some 6 };
  ]
  @
  if s.spec_events then
    [ Event.Spec_observe { set_id = 1; phase = Event.Phase_invocation_start; s = elems; accessible = elems } ]
  else []

let emit s =
  let kinds = Array.of_list (event_mix s) in
  let probe attach =
    let bus = Bus.create () in
    let close = attach bus in
    let i = ref 0 in
    let r =
      Measure.per_call
        (Measure.repeat (fun () ->
             Bus.emit bus ~time:1.0 kinds.(!i);
             i := (!i + 1) mod Array.length kinds))
    in
    close ();
    r
  in
  let jsonl_path = scratch_file "emit-probe.jsonl" in
  [
    ("none", probe (fun _ -> ignore));
    ( "digest",
      probe (fun bus ->
          Bus.attach bus ~name:"digest" (Digest.sink (Digest.create ()));
          ignore) );
    ( "flight",
      probe (fun bus ->
          ignore (Flight.create bus);
          ignore) );
    ( "jsonl",
      probe (fun bus ->
          let w = Jsonl.open_file jsonl_path in
          Bus.attach bus ~name:"jsonl" (Jsonl.sink w);
          fun () ->
            Jsonl.close w;
            Sys.remove jsonl_path) );
  ]

(* [Client.dir_size] round trips, one after another from one fiber. *)
let rpc_roundtrip (w : Scn.world) =
  Measure.per_call (fun k ->
      Engine.spawn w.eng (fun () ->
          for _ = 1 to k do
            ignore (Client.dir_size w.client w.sref)
          done);
      ignore (Engine.run w.eng))

let all (s : sizes) =
  let us name (ns, words) = [ (name ^ "_us", ns /. 1e3, "us"); (name ^ "_words", words, "words") ] in
  let w = Scn.clique_world ~tag:"hostbench-probe" ~n:s.nodes ~size:s.set_size () in
  let members = Directory.members (Node_server.directory_truth w.servers.(0) ~set_id:Scn.set_id) in
  let reach = Measure.per_call (Measure.repeat (fun () -> ignore (Client.reachable_oids w.client members))) in
  let rpc = rpc_roundtrip w in
  let members = min s.set_size s.log_len in
  let apply, since, at = directory ~members s.log_len in
  let apply10, since10, at10 = directory ~members (10 * s.log_len) in
  [ ("store.dir_probe_log_len", float s.log_len, "ops") ]
  @ us "net.path_info" (path_info s.topos)
  @ us "net.rpc_roundtrip" rpc
  @ us "store.reachable_oids" reach
  @ us "store.dir_apply" apply
  @ us "store.ops_since" since
  @ us "store.members_at" at
  @ [
      ("store.dir_apply_us.10x", fst apply10 /. 1e3, "us");
      ("store.ops_since_us.10x", fst since10 /. 1e3, "us");
      ("store.members_at_us.10x", fst at10 /. 1e3, "us");
    ]
  @ List.concat_map
      (fun (sink, (ns, words)) ->
        [ ("obs.emit_ns." ^ sink, ns, "ns"); ("obs.emit_words." ^ sink, words, "words") ])
      (emit s)
