module Client = Weakset_store.Client
module Lockmgr = Weakset_store.Lockmgr

type t = {
  client : Client.t;
  sref : Weakset_store.Protocol.set_ref;
  semantics : Semantics.t;
  heal_signal : Weakset_sim.Signal.t option;
  coordinator_server : Weakset_store.Node_server.t option;
}

let make ?heal_signal ?coordinator_server client sref semantics =
  { client; sref; semantics; heal_signal; coordinator_server }

let semantics t = t.semantics
let sref t = t.sref
let client t = t.client

(* Immutable semantics: mutations must exclude running iterators via the
   write lock. *)
let with_mutation_lock t f =
  match t.semantics.Semantics.mutability with
  | Semantics.Immutable -> (
      match
        Client.lock_acquire (Client.with_timeout t.client Impl.lock_timeout) t.sref Lockmgr.Write
      with
      | Error e -> Error e
      | Ok owner ->
          let result = f () in
          ignore (Client.lock_release t.client t.sref ~owner);
          result)
  | Semantics.Grow_only | Semantics.Mutable_any -> f ()

let add t oid = with_mutation_lock t (fun () -> Client.dir_add t.client t.sref oid)
let remove t oid = with_mutation_lock t (fun () -> Client.dir_remove t.client t.sref oid)
let size t = Client.dir_size t.client t.sref

let mem t oid =
  match
    Client.dir_read t.client ~from:t.sref.Weakset_store.Protocol.coordinator
      ~set_id:t.sref.Weakset_store.Protocol.set_id
  with
  | Ok (_, members) -> Ok (List.exists (Weakset_store.Oid.equal oid) members)
  | Error e -> Error e

let provision ?(replicas = []) ?(replica_interval = 10.0) ~set_id ~coordinator_server
    ~semantics () =
  let policy =
    match semantics.Semantics.mutability with
    | Semantics.Grow_only -> Weakset_store.Node_server.Defer_removes_while_iterating
    | Semantics.Immutable | Semantics.Mutable_any -> Weakset_store.Node_server.Immediate
  in
  Weakset_store.Node_server.host_directory coordinator_server ~set_id ~policy;
  List.iter
    (fun (server : Weakset_store.Node_server.t) ->
      Weakset_store.Node_server.host_replica server ~set_id
        ~of_:(Weakset_store.Node_server.node coordinator_server)
        ~interval:replica_interval ~until:1.0e9)
    replicas;
  {
    Weakset_store.Protocol.set_id;
    coordinator = Weakset_store.Node_server.node coordinator_server;
    replicas = List.map Weakset_store.Node_server.node replicas;
  }

let elements ?(instrument = false) t =
  let inst =
    if instrument then
      match t.coordinator_server with
      | Some server ->
          Some
            (Instrument.attach ~client:t.client ~server
               ~set_id:t.sref.Weakset_store.Protocol.set_id)
      | None -> invalid_arg "Weak_set.elements: instrumentation needs coordinator_server"
    else None
  in
  (Impl.open_ ?instrument:inst ?heal_signal:t.heal_signal t.client t.sref t.semantics, inst)

let spec ?no_failures t = Semantics.spec_of ?no_failures t.semantics
