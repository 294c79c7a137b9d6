type t = { name : string; plan : Gen.plan }

type outcome = {
  o_name : string;
  o_digest : string;
  o_events : int;
  o_deterministic : bool;
  o_issues : Oracle.issue list;
  o_committed : int;
  o_ops_ok : int;
  o_ops_failed : int;
  o_mutation : Weakset_obs.Mutation.t option;
  o_step_cap : int;
  o_run : Runner.result;
}

let passed o = o.o_deterministic && o.o_issues = []

let run ?(step_cap = Runner.default_step_cap) ?mutation row =
  (* Run the whole virtual history twice: a table entry only counts as
     passing if the replay is byte-identical. *)
  let a = Runner.execute ~step_cap ?mutation row.plan in
  let b = Runner.execute ~step_cap ?mutation row.plan in
  {
    o_name = row.name;
    o_digest = a.digest;
    o_events = a.events;
    o_deterministic = String.equal a.digest b.digest && a.events = b.events;
    o_issues = a.issues;
    o_committed = a.committed;
    o_ops_ok = a.ops_ok;
    o_ops_failed = a.ops_failed;
    o_mutation = mutation;
    o_step_cap = step_cap;
    o_run = a;
  }

(* ------------------------------------------------------------------ *)
(* The table.                                                         *)

(* [replicas] group members at indexes [0 .. replicas - 1] and the
   client last, on a 0.5-latency clique, from an empty directory.  The
   seed is a pure function of the name: every run of a row replays the
   same virtual history, byte for byte. *)
let row ?(budget = 300.0) ?admission ~replicas name ops faults =
  {
    name;
    plan =
      {
        Gen.seed = Int64.of_int (Hashtbl.hash name);
        config =
          {
            Gen.shape = Gen.Clique;
            nodes = replicas + 1;
            latency = 0.5;
            replica_ixs = List.init (replicas - 1) (fun i -> i + 1);
            replica_interval = 10.0;
            initial_size = 0;
            cache = false;
            lease_ttl = 30.0;
            open_loop = None;
            group = true;
            admission;
          };
        ops;
        faults;
        budget;
      };
  }

let load at until every = Gen.Load { at; until; every }
let steady_load = load 10.0 240.0 2.0
let probe at = Gen.Probe { at }
let stop node at recover_at = Gen.Crash { node; at; recover_at }
let isolate node at heal_at = Gen.Isolate { node; at; heal_at }

let table =
  [
    row "steady-state" ~replicas:3 [ steady_load; probe 100.0; probe 230.0 ] [];
    row "leader-crash-failover" ~replicas:3
      [ steady_load; probe 120.0; probe 230.0 ]
      [ stop 0 60.0 150.0 ];
    row "leader-crash-mid-commit" ~replicas:3
      (* Dense traffic so the crash lands between Prepare fan-out and
         commit-point propagation. *)
      [ load 10.0 200.0 0.4; probe 120.0 ]
      [ stop 0 50.2 160.0 ];
    row "partitioned-old-leader" ~replicas:3
      [ steady_load; probe 130.0; probe 240.0 ]
      (* The leader keeps running but can reach nobody: the majority
         side must elect past it, and it must rejoin as a backup. *)
      [ isolate 0 60.0 170.0 ];
    row "dueling-view-changes" ~replicas:5
      [ steady_load; probe 110.0 ]
      (* All four backups lose the leader at once; the staggered
         suspicion timers must converge on one view, not duel. *)
      [ stop 0 60.0 140.0 ];
    row "backup-crash" ~replicas:3 [ steady_load; probe 100.0 ] [ stop 2 60.0 150.0 ];
    row "state-transfer-under-churn" ~replicas:3
      [ load 10.0 250.0 0.8; probe 150.0 ]
      (* r1 misses most of the run and returns far behind the commit
         point: rejoining takes a Get_state transfer, not one
         heartbeat. *)
      [ stop 1 40.0 220.0 ];
    row "quorum-loss-recovery" ~replicas:3 ~budget:400.0
      [ load 10.0 350.0 2.0; probe 300.0 ]
      (* Two of three down: no elections can finish, submits must fail
         retryably, and the group must recover when a quorum returns. *)
      [ stop 1 60.0 260.0; stop 2 70.0 240.0 ];
    row "isolate-heal-isolate" ~replicas:3
      [ steady_load; probe 120.0; probe 210.0 ]
      [ isolate 0 50.0 100.0; isolate 1 130.0 180.0 ];
    row "double-failover" ~replicas:5
      [ steady_load; probe 150.0; probe 240.0 ]
      (* View 0's leader dies, then view 1's leader dies too: two
         complete view changes back to back. *)
      [ stop 0 50.0 180.0; stop 1 90.0 200.0 ];
    row "partition-majority-minority" ~replicas:5
      [ steady_load; probe 130.0; probe 240.0 ]
      (* Leader and one backup on the minority side; the majority (with
         the client) must keep committing. *)
      [ Gen.Partition { groups = [ [ 0; 1 ] ]; at = 60.0; heal_at = 180.0 } ];
    row "old-leader-returns" ~replicas:3
      [ steady_load; probe 140.0 ]
      (* A short outage: the deposed leader comes back quickly and must
         step down into the higher view it slept through. *)
      [ stop 0 50.0 95.0 ];
    row "flapping-replica" ~replicas:3
      [ steady_load; probe 160.0 ]
      [ isolate 2 40.0 60.0; isolate 2 80.0 100.0; isolate 2 120.0 140.0 ];
    row "overlapping-isolations" ~replicas:5
      [ steady_load; probe 140.0; probe 230.0 ]
      (* The windows overlap: when r1's ends, r2 must stay cut off until
         its own heal — per-fault link holds, not a global heal.  With
         five replicas the remaining three keep a quorum throughout. *)
      [ isolate 1 50.0 120.0; isolate 2 80.0 170.0 ];
    row "rapid-churn" ~replicas:3 [ load 5.0 260.0 0.25; probe 100.0; probe 200.0 ] [];
    row "retry-storm" ~replicas:3
      (* Capacity 8: reads shed at queue depth 4, mutations at 6 — small
         enough that the storm's opening burst sheds mutations (the
         planted-shed gate needs one) and its steady offered rate
         (16/0.25 = 64/s against a 1/0.02 = 50/s server) keeps the queue
         saturated, budgets draining and refilling. *)
      ~admission:8
      [ steady_load; probe 120.0; probe 230.0 ]
      [ Gen.Storm { at = 30.0; until = 220.0; clients = 16; every = 0.25 } ];
    row "shed-under-partition" ~replicas:3 ~admission:8
      [ steady_load; probe 130.0; probe 230.0 ]
      [
        Gen.Storm { at = 20.0; until = 240.0; clients = 12; every = 0.3 };
        (* The backups pair off; the coordinator keeps the client but
           loses its quorum, so mutations fail retryably while the read
           storm keeps shedding against it. *)
        Gen.Partition { groups = [ [ 1; 2 ] ]; at = 60.0; heal_at = 160.0 };
      ];
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) table

let pp_outcome ppf o =
  let verdict =
    if passed o then "PASS"
    else if not o.o_deterministic then "NONDETERMINISTIC"
    else "FAIL"
  in
  Format.fprintf ppf "%-28s %-16s commits=%-4d ops=%d/%d events=%d digest=%s" o.o_name
    verdict o.o_committed o.o_ops_ok
    (o.o_ops_ok + o.o_ops_failed)
    o.o_events o.o_digest;
  List.iter (fun i -> Format.fprintf ppf "@,  issue: %s" (Oracle.describe i)) o.o_issues
