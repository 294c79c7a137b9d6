module Engine = Weakset_sim.Engine
module Bus = Weakset_obs.Bus
module Event = Weakset_obs.Event
module Digest = Weakset_obs.Digest

let default_step_cap = 1_000_000

type evidence = {
  iterations : Oracle.iteration_input list;
  cache : Oracle.cache_evidence option;
  repl : Oracle.repl_evidence option;
}

type 'a judged = {
  world : 'a;
  digest : string;
  events : int;
  steps : int;
  issues : Oracle.issue list;
}

let run ~seed ~step_cap ~mutation build =
  Weakset_obs.Mutation.with_armed mutation @@ fun () ->
  let eng = Engine.create ~seed () in
  let bus = Engine.bus eng in
  let digest = Digest.create () in
  Bus.attach bus ~name:"vopr-digest" (Digest.sink digest);
  let rpc_calls = ref 0 and rpc_dones = ref 0 in
  (* Track which fibers are still alive, by name, so a leak verdict can
     say who leaked.  A fiber is alive from Fiber_spawn until a Run_end
     whose park is Park_done/Park_crash. *)
  let fiber_state : (int, string) Hashtbl.t = Hashtbl.create 32 in
  Bus.attach bus ~name:"vopr-accounting" (fun ev ->
      match ev.Event.kind with
      | Event.Rpc_call _ -> incr rpc_calls
      | Event.Rpc_done _ -> incr rpc_dones
      | Event.Fiber_spawn { fid; fiber } -> Hashtbl.replace fiber_state fid fiber
      | Event.Run_end { fid; park = Event.Park_done | Event.Park_crash; _ } ->
          Hashtbl.remove fiber_state fid
      | _ -> ());
  let collect = build eng in
  let steps = Engine.run ~max_steps:step_cap eng in
  let world, { iterations; cache; repl } = collect () in
  let engine_crashes =
    List.map
      (fun c -> (c.Engine.crash_fiber, Printexc.to_string c.Engine.crash_exn))
      (Engine.crashes eng)
  in
  let parked_fibers =
    if Engine.live_fibers eng = 0 then []
    else Hashtbl.fold (fun _ name acc -> name :: acc) fiber_state [] |> List.sort compare
  in
  let issues =
    Oracle.judge
      {
        Oracle.iterations;
        engine_crashes;
        parked_fibers;
        steps;
        step_cap;
        unmatched_rpcs = !rpc_calls - !rpc_dones;
        cache;
        repl;
      }
  in
  { world; digest = Digest.value digest; events = Digest.count digest; steps; issues }
