module Client = Weakset_store.Client
module Node_server = Weakset_store.Node_server
module Directory = Weakset_store.Directory
module Oid = Weakset_store.Oid
module Engine = Weakset_sim.Engine
module Spec = Weakset_spec
module Event = Weakset_obs.Event
module Version = Weakset_store.Version

type t = {
  client : Client.t;
  server : Node_server.t;
  set_id : int;
  monitor : Spec.Monitor.t;
  mutable universe : Oid.Set.t; (* every oid ever observed as a member *)
  mutable history : (Version.t * Oid.Set.t) list; (* membership per version, newest first *)
  mutable unhook : unit -> unit;
}

(* Oid → spec element: id = oid number, label = printed oid. *)
let elem_of_oid oid = Spec.Elem.make ~label:(Oid.to_string oid) (Oid.num oid)

(* [oids] as spec elements in ascending id order, one per oid number.
   Oids order by number first, so oids sharing a number (on different
   homes) are adjacent and the first of them stands for all. *)
let elems oids =
  List.rev
    (Oid.Set.fold
       (fun o acc ->
         match acc with
         | e :: _ when Spec.Elem.id e = Oid.num o -> acc
         | _ -> elem_of_oid o :: acc)
       oids [])

let truth t = Directory.members (Node_server.directory_truth t.server ~set_id:t.set_id)

(* The paper's reachable(): which ever-member elements are accessible from
   the client's node in the current state.

   [linearised] is the member list an implementation's membership read
   actually delivered.  When given it becomes the recorded [s]: a
   mutation that lands while the reply is in flight would otherwise make
   the coordinator's directory diverge from the view the implementation
   linearised on, and the monitor would judge the decision against a
   state it never saw.

   [version] is the directory version the reply carried.  Since the type
   constraint no longer scans these views (see Constraint_clause), a
   read path that corrupts membership would go unnoticed — so the
   instrument cross-checks the view against its own per-version record of
   the directory, which is exact: a serve returns precisely the
   directory at its version. *)
exception Corrupt_view of string

let membership_at t version =
  Option.map snd (List.find_opt (fun (v, _) -> Version.equal v version) t.history)

let verify_view t version members =
  match List.find_opt (fun (v, _) -> Version.equal v version) t.history with
  | None -> () (* version predates this instrument's attachment *)
  | Some (_, recorded) ->
      if not (Oid.Set.equal members recorded) then
        raise
          (Corrupt_view
             (Format.asprintf "instrument: membership reply diverges from directory@%a"
                Version.pp version))

let capture ?version ?linearised t =
  let members =
    match linearised with
    | Some m ->
        Option.iter (fun v -> verify_view t v m) version;
        m
    | None -> truth t
  in
  t.universe <- Oid.Set.union t.universe members;
  let accessible = Client.reachable_oids t.client t.universe in
  (elems members, elems accessible)

(* Every capture is one [Spec_observe] event: published on the bus and
   fed, as the same value, to this instrument's monitor, so a replay of
   the recorded trace rebuilds exactly the computation judged here. *)
let record ?version ?linearised t phase =
  let s, accessible = capture ?version ?linearised t in
  let eng = Client.engine t.client in
  let time = Engine.now eng in
  let kind = Event.Spec_observe { set_id = t.set_id; phase; s; accessible } in
  Weakset_obs.Bus.emit (Engine.bus eng) ~time kind;
  Spec.Monitor.observe t.monitor ~time kind

let attach ~client ~server ~set_id =
  (* Fail fast if the server does not coordinate this set. *)
  let dir = Node_server.directory_truth server ~set_id in
  let t =
    {
      client;
      server;
      set_id;
      monitor = Spec.Monitor.create ~set_id;
      universe = Oid.Set.empty;
      history = [ (Directory.version dir, Directory.members dir) ];
      unhook = (fun () -> ());
    }
  in
  let unhook =
    Node_server.on_directory_mutation server ~set_id (fun op ->
        (* A removal's oid leaves [truth] but must stay in the universe so
           its (in)accessibility keeps being recorded. *)
        (match op with
        | Directory.Remove o | Directory.Add o -> t.universe <- Oid.Set.add o t.universe);
        t.history <- (Directory.version dir, Directory.members dir) :: t.history;
        record t
          (Event.Phase_mutation
             (match op with
             | Directory.Add o -> Event.Spec_add (elem_of_oid o)
             | Directory.Remove o -> Event.Spec_remove (elem_of_oid o))))
  in
  t.unhook <- unhook;
  t

let detach t = t.unhook ()

let computation t = Spec.Monitor.computation t.monitor

let observe_first ?version ?linearised t = record ?version ?linearised t Event.Phase_first
let invocation_started t = record t Event.Phase_invocation_start

let invocation_retry ?version ?linearised t =
  record ?version ?linearised t Event.Phase_invocation_retry

let invocation_completed t term =
  record t
    (match term with
    | Spec.Sstate.Returns -> Event.Phase_returns
    | Spec.Sstate.Fails -> Event.Phase_fails
    | Spec.Sstate.Suspends e -> Event.Phase_suspends e)

let suspends oid = Spec.Sstate.Suspends (elem_of_oid oid)

let check t spec = Spec.Figures.check spec (computation t)
