module Client = Weakset_store.Client
module Oid = Weakset_store.Oid
module Topology = Weakset_net.Topology
module Engine = Weakset_sim.Engine
module Signal = Weakset_sim.Signal

type ctx = {
  client : Client.t;
  sref : Weakset_store.Protocol.set_ref;
  instrument : Instrument.t option;
  heal_signal : Signal.t option;
  retry_backoff : float;
  lock_timeout : float;
  max_fetch_attempts : int;
}

let make_ctx ?instrument ?heal_signal ?(retry_backoff = 1.0) ?(lock_timeout = 600.0)
    ?(max_fetch_attempts = 5) client sref =
  { client; sref; instrument; heal_signal; retry_backoff; lock_timeout; max_fetch_attempts }

let engine ctx = Client.engine ctx.client

let pick_reachable ctx candidates =
  let topo = Client.topology ctx.client in
  let me = Client.node ctx.client in
  let better (oid, lat) (boid, blat) = lat < blat || (lat = blat && Oid.num oid < Oid.num boid) in
  Oid.Set.fold
    (fun oid best ->
      match Topology.path_latency topo me (Oid.home oid) with
      | None -> best
      | Some lat -> (
          match best with
          | Some b when not (better (oid, lat) b) -> best
          | Some _ | None -> Some (oid, lat)))
    candidates None
  |> Option.map fst

let signal_generation ctx =
  match ctx.heal_signal with Some s -> Signal.generation s | None -> 0

let wait_for_change ctx ~seen_generation =
  let eng = engine ctx in
  match ctx.heal_signal with
  | Some s ->
      (* Avoid the lost-wakeup race: only park if nothing changed since the
         caller sampled the generation. *)
      if Signal.generation s = seen_generation then Signal.wait eng s
  | None -> Engine.sleep eng ctx.retry_backoff

let inst_detach ctx = Option.iter Instrument.detach ctx.instrument

let inst_first ?version ?linearised ctx =
  Option.iter (Instrument.observe_first ?version ?linearised) ctx.instrument

let inst_started ctx = Option.iter Instrument.invocation_started ctx.instrument

let inst_retry ?version ?linearised ctx =
  Option.iter (Instrument.invocation_retry ?version ?linearised) ctx.instrument

let inst_completed ctx term =
  Option.iter (fun i -> Instrument.invocation_completed i term) ctx.instrument

let inst_yield ctx oid = inst_completed ctx (Instrument.suspends oid)
