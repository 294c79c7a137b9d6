module Engine = Weakset_sim.Engine
module Ivar = Weakset_sim.Ivar
module Nodeid = Weakset_net.Nodeid
module Rpc = Weakset_net.Rpc
module Topology = Weakset_net.Topology
module Protocol = Weakset_store.Protocol
module Node_server = Weakset_store.Node_server
module Directory = Weakset_store.Directory
module Version = Weakset_store.Version
module Oid = Weakset_store.Oid
module Metrics = Weakset_obs.Metrics
module Event = Weakset_obs.Event
module Bus = Weakset_obs.Bus

type rpc = (Protocol.request, Protocol.response) Rpc.t

let op_str op = Format.asprintf "%a" Directory.pp_op op

(* The client-visible commit ledger: every (opnum, op) a leader
   committed — i.e. acknowledged as durable.  Shared by all members of
   one group (the harness creates it), it is the oracle's ground truth
   for commit safety: a recorded entry must survive, at its opnum, in
   every member's final log. *)
module Ledger = struct
  type entry = { l_opnum : int; l_op : string; l_view : int; l_time : float }
  type t = { mutable rev_entries : entry list }

  let create () = { rev_entries = [] }
  let record t e = t.rev_entries <- e :: t.rev_entries
  let entries t = List.rev t.rev_entries
end

type status = Normal | View_change

let status_str = function Normal -> "normal" | View_change -> "view-change"

(* Leader-side bookkeeping for one in-flight log entry. *)
type ack = {
  a_view : int;
  mutable a_from : int list; (* member ixs that acked the Prepare *)
  a_done : Protocol.response Ivar.t; (* filled at commit / step-down *)
}

(* One member's Do_view_change contribution. *)
type dvc = {
  d_last_normal : int;
  d_opnum : Version.t;
  d_commit : Version.t;
  d_log : (Version.t * Directory.op) list; (* full log, oldest first *)
}

type t = {
  rpc : rpc;
  engine : Engine.t;
  set_id : int;
  members : Nodeid.t array; (* fixed, ascending node id; leader = view mod n *)
  me : Nodeid.t;
  me_ix : int;
  server : Node_server.t;
  heartbeat_every : float;
  suspect_after : float;
  rpc_timeout : float;
  submit_patience : float;
  ledger : Ledger.t option;
  mutable view : int;
  mutable vstatus : status;
  mutable last_normal : int; (* last view this member was Normal in *)
  mutable suffix : (Version.t * Directory.op) list; (* accepted > commit, oldest first *)
  mutable suffix_view : int;
      (* the view under whose leader the suffix entries were accepted or
         installed.  A suffix from an older view may disagree with a
         newer view's ordering, so it must never be committed — or
         counted as freshest-log evidence — in that newer view without a
         state transfer first.  Meaningless while the suffix is empty. *)
  mutable opnum : Version.t; (* highest accepted opnum *)
  mutable last_heard : float; (* last contact from the current leader *)
  mutable vc_entered : float; (* when vstatus last became View_change *)
  acks : (int, ack) Hashtbl.t; (* keyed by opnum *)
  mutable svc_view : int; (* view the vote/DVC tables below are for *)
  mutable svc_votes : int list; (* member ixs voting for svc_view *)
  mutable svc_sent : int; (* last view whose SVC we broadcast *)
  mutable dvc_sent : int; (* last view whose DVC we sent *)
  mutable dvc_entries : (int * dvc) list; (* from ix -> contribution *)
  mutable dvc_done : int; (* last view we completed a takeover for *)
  mutable until : float;
  c_submits : Metrics.counter;
  c_commits : Metrics.counter;
  c_view_changes : Metrics.counter;
  c_redirects : Metrics.counter;
  c_state_transfers : Metrics.counter;
}

let n_members t = Array.length t.members
let majority t = (n_members t / 2) + 1
let leader_ix t view = ((view mod n_members t) + n_members t) mod n_members t
let leader_node t view = t.members.(leader_ix t view)
let is_leader t = t.vstatus = Normal && leader_ix t t.view = t.me_ix

let dir t = Node_server.directory_truth t.server ~set_id:t.set_id
let commit t = Directory.version (dir t)

let now t = Engine.now t.engine

let note t fmt =
  Printf.ksprintf
    (fun s ->
      Bus.emit (Engine.bus t.engine) ~time:(now t)
        (Event.Custom
           {
             label = "repl";
             detail =
               Printf.sprintf "set%d n%d view=%d %s" t.set_id
                 (Nodeid.to_int t.me) t.view s;
           }))
    fmt

(* Full log, oldest first: the committed prefix lives in the hosted
   directory (its version IS the commit number), the accepted-but-
   uncommitted suffix is ours. *)
let full_log t = Directory.ops_since (dir t) Version.zero @ t.suffix

let committed_log t =
  List.map (fun (v, op) -> (Version.to_int v, op_str op)) (Directory.ops_since (dir t) Version.zero)

(* Speculative membership: committed state plus the pending suffix —
   what the set will hold once everything in flight commits.  The leader
   refuses to log ineffective ops against this view, which keeps every
   logged entry bumping the directory version by exactly one and the
   opnum sequence aligned with [Directory.version]. *)
let speculative_members t =
  List.fold_left
    (fun m (_, op) ->
      match op with
      | Directory.Add o -> Oid.Set.add o m
      | Directory.Remove o -> Oid.Set.remove o m)
    (Directory.members (dir t))
    t.suffix

let effective t op =
  let m = speculative_members t in
  match op with
  | Directory.Add o -> not (Oid.Set.mem o m)
  | Directory.Remove o -> Oid.Set.mem o m

(* Apply committed entries (from a log adoption or state transfer) that
   this member has not applied yet, in order.  Entries at or below the
   current directory version are already in; under the planted bug the
   sequences can diverge, which this skips over rather than crashing —
   the oracle, not the sim, reports that corruption. *)
let apply_committed_entries t ops ~upto =
  List.iter
    (fun (v, op) ->
      if Version.( <= ) v upto && Version.( < ) (commit t) v then begin
        Node_server.repl_apply_committed t.server ~set_id:t.set_id op;
        Metrics.inc t.c_commits
      end)
    ops

(* Advance the commit point over the suffix up to [target]: apply each
   entry to the directory, resolve its waiting submitter (recording the
   client-visible commit in the ledger when we are the one acking). *)
let advance_commit t target =
  let target = if Version.( <= ) target t.opnum then target else t.opnum in
  let rec go () =
    match t.suffix with
    | (v, op) :: rest when Version.( <= ) v target ->
        Node_server.repl_apply_committed t.server ~set_id:t.set_id op;
        Metrics.inc t.c_commits;
        t.suffix <- rest;
        let key = Version.to_int v in
        (match Hashtbl.find_opt t.acks key with
        | Some a ->
            Hashtbl.remove t.acks key;
            (match t.ledger with
            | Some l ->
                Ledger.record l
                  {
                    Ledger.l_opnum = key;
                    l_op = op_str op;
                    l_view = a.a_view;
                    l_time = now t;
                  }
            | None -> ());
            ignore (Ivar.try_fill t.engine a.a_done Protocol.Ack)
        | None ->
            (* a leader committing adopted entries after a takeover: no
               submitter is parked here, but the commit is just as
               client-visible *)
            if leader_ix t t.view = t.me_ix then
              Option.iter
                (fun l ->
                  Ledger.record l
                    {
                      Ledger.l_opnum = key;
                      l_op = op_str op;
                      l_view = t.view;
                      l_time = now t;
                    })
                t.ledger);
        go ()
    | _ -> ()
  in
  go ()

(* Leader: commit the longest contiguous suffix prefix with majority
   acks.  Entries adopted from a view change have no ack record and act
   as a barrier — they commit via the Start_view installation quorum. *)
let try_commit t =
  let maj = majority t in
  let rec scan acc = function
    | (v, _) :: rest -> (
        match Hashtbl.find_opt t.acks (Version.to_int v) with
        | Some a when List.length a.a_from >= maj -> scan (Some v) rest
        | _ -> acc)
    | [] -> acc
  in
  match scan None t.suffix with Some target -> advance_commit t target | None -> ()

(* Fail every parked submitter: the group moved on (step-down or view
   change) and their entries' fates now belong to the new leader.  The
   ops themselves stay in the suffix — a retried submit that already
   committed is absorbed by the effectiveness check (no-op Ack). *)
let fail_pending t =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.acks [] |> List.sort Int.compare in
  List.iter
    (fun k ->
      match Hashtbl.find_opt t.acks k with
      | Some a ->
          Hashtbl.remove t.acks k;
          ignore
            (Ivar.try_fill t.engine a.a_done
               (Protocol.Not_leader
                  { view = t.view; leader = Nodeid.to_int (leader_node t t.view) }))
      | None -> ())
    keys

(* Install an authoritative full log for [view]: apply the committed
   prefix we are missing, replace our suffix with the entries above
   [commit_pt]. *)
let install_log t log ~view ~opnum ~commit_pt =
  apply_committed_entries t log ~upto:commit_pt;
  t.suffix <- List.filter (fun (v, _) -> Version.( < ) commit_pt v) log;
  t.suffix_view <- view;
  t.opnum <- Version.max opnum commit_pt

(* State transfer: adopt a Normal member's log wholesale.  Used by a
   recovering replica before it rejoins the quorum, by a member that
   detected a gap in the Prepare stream, and by [adopt_view] before a
   member with an old-view suffix may act Normal in a newer view.
   [min_view] (default: our own view) rejects answers from members still
   behind the view we are trying to enter.  Only on success do we
   (re)enter Normal and record [last_normal]: a failed transfer must
   leave no claim of having been Normal with a stale log, because the
   freshest-log rule ([pick_best]) trusts exactly that claim. *)
let catch_up ?min_view t ~from =
  let min_view = match min_view with Some v -> max v t.view | None -> t.view in
  if Nodeid.equal from t.me then false
  else
    match
      Rpc.call t.rpc ~src:t.me ~dst:from ~timeout:t.rpc_timeout
        (Protocol.Repl (Protocol.Get_state { group = t.set_id; since = commit t }))
    with
    | Ok (Protocol.Repl_state { view; opnum; commit = commit_pt; ops }) ->
        if view >= min_view then begin
          install_log t ops ~view ~opnum ~commit_pt;
          t.view <- view;
          t.vstatus <- Normal;
          t.last_normal <- view;
          t.last_heard <- now t;
          Metrics.inc t.c_state_transfers;
          note t "state-transfer from=n%d commit=%d opnum=%d" (Nodeid.to_int from)
            (Version.to_int (commit t))
            (Version.to_int t.opnum);
          true
        end
        else false
    | Ok _ | Error _ -> false

(* ------------------------------------------------------------------ *)
(* View change                                                        *)
(* ------------------------------------------------------------------ *)

let dvc_of_self t =
  {
    d_last_normal = t.last_normal;
    d_opnum = t.opnum;
    d_commit = commit t;
    d_log = full_log t;
  }

(* Deterministic best-log choice: highest (last_normal, opnum), lowest
   member ix breaking ties — the VSR freshest-log rule.  Any log in the
   DVC quorum with the committed entries wins or ties into the pick. *)
let pick_best entries =
  let entries = List.sort (fun (a, _) (b, _) -> Int.compare a b) entries in
  List.fold_left
    (fun best (ix, d) ->
      match best with
      | None -> Some (ix, d)
      | Some (_, b) ->
          if
            d.d_last_normal > b.d_last_normal
            || (d.d_last_normal = b.d_last_normal
               && Version.( < ) b.d_opnum d.d_opnum)
          then Some (ix, d)
          else best)
    None entries

let rec become_leader t v =
  if t.dvc_done < v then begin
    t.dvc_done <- v;
    let entries = t.dvc_entries in
    let best =
      match pick_best entries with
      | Some (_, d) -> d
      | None -> dvc_of_self t (* unreachable: own DVC is always recorded *)
    in
    let max_commit =
      List.fold_left (fun acc (_, d) -> Version.max acc d.d_commit) best.d_commit entries
    in
    (* The adopted log is re-replicated under view [v]: from here on the
       suffix follows the new view's ordering. *)
    install_log t best.d_log ~view:v ~opnum:best.d_opnum ~commit_pt:max_commit;
    (* Planted bug [Mutation.View_change_drop]: throw away the
       uncommitted suffix of the best log instead of re-replicating it.
       An op the old leader had already committed — majority-acked,
       client-acked — but whose commit point had not yet reached the
       backups vanishes, and its opnum gets reused: exactly the
       commit-safety violation the oracle's [Commit_lost] /
       [Commit_reordered] verdicts must catch. *)
    if Weakset_obs.Mutation.(armed View_change_drop) && t.suffix <> [] then begin
      note t "PLANTED drop of %d uncommitted entr(ies) at takeover"
        (List.length t.suffix);
      t.suffix <- [];
      t.opnum <- commit t
    end;
    t.view <- v;
    t.vstatus <- Normal;
    t.last_normal <- v;
    t.last_heard <- now t;
    Metrics.inc t.c_view_changes;
    note t "become-leader commit=%d opnum=%d" (Version.to_int (commit t))
      (Version.to_int t.opnum);
    (* Re-replicate the adopted log: once a majority (us included) has
       installed the new view, everything adopted is safely in it and
       the suffix inherited from prior views commits. *)
    let adopted_opnum = t.opnum in
    let sv_log = full_log t in
    let sv_commit = commit t in
    let installed = ref 1 in
    let committed = ref false in
    let on_installed () =
      incr installed;
      if (not !committed) && !installed >= majority t && t.vstatus = Normal && t.view = v
      then begin
        committed := true;
        advance_commit t adopted_opnum;
        try_commit t
      end
    in
    if n_members t = 1 then begin
      committed := true;
      advance_commit t adopted_opnum
    end
    else
      Array.iteri
        (fun ix peer ->
          if ix <> t.me_ix then
            Engine.spawn t.engine
              ~name:
                (Printf.sprintf "repl-sv-%s-set%d-v%d-to%d" (Nodeid.to_string t.me)
                   t.set_id v ix)
              (fun () ->
                match
                  Rpc.call t.rpc ~src:t.me ~dst:peer ~timeout:t.rpc_timeout
                    (Protocol.Repl
                       (Protocol.Start_view
                          {
                            group = t.set_id;
                            view = v;
                            opnum = adopted_opnum;
                            commit = sv_commit;
                            log = sv_log;
                          }))
                with
                | Ok (Protocol.Repl_ok _) -> on_installed ()
                | Ok (Protocol.Repl_reject { view }) -> learn_higher t view
                | Ok _ | Error _ -> ()))
        t.members
  end

and record_dvc t v ~from d =
  if t.svc_view < v then begin
    t.svc_view <- v;
    t.svc_votes <- [];
    t.dvc_entries <- []
  end;
  if t.svc_view = v && not (List.mem_assoc from t.dvc_entries) then begin
    t.dvc_entries <- (from, d) :: t.dvc_entries;
    if List.length t.dvc_entries >= majority t then become_leader t v
  end

and send_dvc t v =
  if t.dvc_sent < v then begin
    t.dvc_sent <- v;
    if leader_ix t v = t.me_ix then record_dvc t v ~from:t.me_ix (dvc_of_self t)
    else begin
      let d = dvc_of_self t in
      let peer = leader_node t v in
      Engine.spawn t.engine
        ~name:
          (Printf.sprintf "repl-dvc-%s-set%d-v%d" (Nodeid.to_string t.me) t.set_id v)
        (fun () ->
          match
            Rpc.call t.rpc ~src:t.me ~dst:peer ~timeout:t.rpc_timeout
              (Protocol.Repl
                 (Protocol.Do_view_change
                    {
                      group = t.set_id;
                      view = v;
                      from = t.me_ix;
                      last_normal = d.d_last_normal;
                      opnum = d.d_opnum;
                      commit = d.d_commit;
                      log = d.d_log;
                    }))
          with
          | Ok (Protocol.Repl_reject { view }) -> learn_higher t view
          | Ok _ | Error _ -> ())
    end
  end

and record_svc_vote t v ~from =
  if t.svc_view < v then begin
    t.svc_view <- v;
    t.svc_votes <- [];
    t.dvc_entries <- []
  end;
  if t.svc_view = v then begin
    if not (List.mem from t.svc_votes) then t.svc_votes <- from :: t.svc_votes;
    if not (List.mem t.me_ix t.svc_votes) then t.svc_votes <- t.me_ix :: t.svc_votes;
    if List.length t.svc_votes >= majority t then send_dvc t v
  end

and start_view_change t v =
  if v > t.view || (v = t.view && t.vstatus = View_change) then begin
    if v > t.view || t.vstatus = Normal then begin
      t.view <- v;
      if t.vstatus = Normal then fail_pending t;
      t.vstatus <- View_change;
      t.vc_entered <- now t;
      note t "start-view-change"
    end;
    record_svc_vote t v ~from:t.me_ix;
    if t.svc_sent < v then begin
      t.svc_sent <- v;
      Array.iteri
        (fun ix peer ->
          if ix <> t.me_ix then
            Engine.spawn t.engine
              ~name:
                (Printf.sprintf "repl-svc-%s-set%d-v%d-to%d" (Nodeid.to_string t.me)
                   t.set_id v ix)
              (fun () ->
                match
                  Rpc.call t.rpc ~src:t.me ~dst:peer ~timeout:t.rpc_timeout
                    (Protocol.Repl
                       (Protocol.Start_view_change
                          { group = t.set_id; view = v; from = t.me_ix }))
                with
                | Ok (Protocol.Repl_ok { view; from; _ }) when view = v ->
                    record_svc_vote t v ~from
                | Ok (Protocol.Repl_reject { view }) -> learn_higher t view
                | Ok _ | Error _ -> ()))
        t.members
    end
  end

(* Learning of a higher view from a rejection: someone is ahead of us.
   Join the view change for it — if it is in fact already Normal, the
   new leader's next heartbeat snaps us back (see [handle_commit]). *)
and learn_higher t v = if v > t.view then start_view_change t v

(* ------------------------------------------------------------------ *)
(* Message handlers (run inside the node's RPC serve fiber)           *)
(* ------------------------------------------------------------------ *)

(* Become Normal in [view] (>= our own), learned from the view leader's
   Prepare/Commit traffic.  The committed prefix is shared by
   construction, so an empty suffix — or one already accepted under
   this very view — adopts immediately.  Anything else was accepted
   under an older leader and may disagree with [view]'s ordering:
   state-transfer the leader's log in first, and on failure refuse to
   act Normal at all — no [Normal] status, no [last_normal] claim, no
   commit advance over the stale suffix.  A deposed leader adopting a
   newer view also fails its parked submitters here: their entries' fates
   belong to the new leader now, and a later commit at the same opnum
   must not be mistaken for theirs. *)
let adopt_view t ~view =
  let adopted =
    if t.suffix = [] || t.suffix_view = view then begin
      t.view <- view;
      t.vstatus <- Normal;
      t.last_normal <- view;
      t.last_heard <- now t;
      true
    end
    else catch_up t ~min_view:view ~from:(leader_node t view)
  in
  if adopted && Hashtbl.length t.acks > 0 then fail_pending t;
  (* catch_up can overshoot to an even newer view; the caller's message
     is stale then and must be rejected. *)
  adopted && t.view = view

let handle_prepare t ~view ~opnum ~op ~commit:commit_pt =
  if view < t.view then Protocol.Repl_reject { view = t.view }
  else if (view > t.view || t.vstatus <> Normal) && not (adopt_view t ~view) then
    Protocol.Repl_reject { view = t.view }
  else begin
    t.last_heard <- now t;
    let next = Version.succ t.opnum in
    (if Version.equal opnum next then begin
       t.suffix <- t.suffix @ [ (opnum, op) ];
       t.suffix_view <- view;
       t.opnum <- opnum
     end
     else if Version.( < ) next opnum then
       (* gap: we missed Prepares; adopt the leader's log wholesale *)
       ignore (catch_up t ~from:(leader_node t view)));
    advance_commit t commit_pt;
    if Version.( <= ) opnum t.opnum then
      Protocol.Repl_ok { view = t.view; opnum; from = t.me_ix }
    else Protocol.Repl_reject { view = t.view }
  end

let handle_commit t ~view ~commit:commit_pt =
  if view < t.view then Protocol.Repl_reject { view = t.view }
  else if (view > t.view || t.vstatus <> Normal) && not (adopt_view t ~view) then
    Protocol.Repl_reject { view = t.view }
  else begin
    t.last_heard <- now t;
    if Version.( < ) t.opnum commit_pt then
      ignore (catch_up t ~from:(leader_node t view));
    advance_commit t commit_pt;
    Protocol.Repl_ok { view = t.view; opnum = t.opnum; from = t.me_ix }
  end

let handle_svc t ~view ~from =
  if view < t.view || (view = t.view && t.vstatus = Normal) then
    Protocol.Repl_reject { view = t.view }
  else begin
    start_view_change t view;
    record_svc_vote t view ~from;
    (* the reply carries our own vote back to the sender *)
    Protocol.Repl_ok { view; opnum = t.opnum; from = t.me_ix }
  end

let handle_dvc t ~view ~from d =
  if view < t.view then Protocol.Repl_reject { view = t.view }
  else if leader_ix t view <> t.me_ix then Protocol.Repl_reject { view = t.view }
  else begin
    if view > t.view then start_view_change t view;
    record_dvc t view ~from d;
    Protocol.Repl_ok { view; opnum = t.opnum; from = t.me_ix }
  end

let handle_start_view t ~view ~opnum ~commit:commit_pt ~log =
  if view < t.view then Protocol.Repl_reject { view = t.view }
  else begin
    if t.vstatus = Normal && leader_ix t t.view = t.me_ix then fail_pending t;
    install_log t log ~view ~opnum ~commit_pt;
    t.view <- view;
    t.vstatus <- Normal;
    t.last_normal <- view;
    t.last_heard <- now t;
    Metrics.inc t.c_view_changes;
    note t "install-view commit=%d opnum=%d" (Version.to_int (commit t))
      (Version.to_int t.opnum);
    Protocol.Repl_ok { view; opnum = t.opnum; from = t.me_ix }
  end

let handle_get_state t ~since =
  if t.vstatus <> Normal then Protocol.Repl_reject { view = t.view }
  else
    let ops = List.filter (fun (v, _) -> Version.( < ) since v) (full_log t) in
    Protocol.Repl_state
      { view = t.view; opnum = t.opnum; commit = commit t; ops }

let handle t (r : Protocol.repl_request) : Protocol.response =
  match r with
  | Protocol.Prepare { group; view; opnum; op; commit } ->
      if group <> t.set_id then Protocol.No_service
      else handle_prepare t ~view ~opnum ~op ~commit
  | Protocol.Commit { group; view; commit } ->
      if group <> t.set_id then Protocol.No_service
      else handle_commit t ~view ~commit
  | Protocol.Start_view_change { group; view; from } ->
      if group <> t.set_id then Protocol.No_service else handle_svc t ~view ~from
  | Protocol.Do_view_change { group; view; from; last_normal; opnum; commit; log } ->
      if group <> t.set_id then Protocol.No_service
      else
        handle_dvc t ~view ~from
          { d_last_normal = last_normal; d_opnum = opnum; d_commit = commit; d_log = log }
  | Protocol.Start_view { group; view; opnum; commit; log } ->
      if group <> t.set_id then Protocol.No_service
      else handle_start_view t ~view ~opnum ~commit ~log
  | Protocol.Get_state { group; since } ->
      if group <> t.set_id then Protocol.No_service else handle_get_state t ~since

(* ------------------------------------------------------------------ *)
(* Client submit (the Node_server repl_submit hook)                   *)
(* ------------------------------------------------------------------ *)

let on_prepare_ok t ~view ~opnum ~from =
  if t.view = view && t.vstatus = Normal && leader_ix t view = t.me_ix then
    match Hashtbl.find_opt t.acks (Version.to_int opnum) with
    | Some a when a.a_view = view ->
        if not (List.mem from a.a_from) then a.a_from <- from :: a.a_from;
        try_commit t
    | Some _ | None -> ()

let submit t op : Protocol.response =
  let leader = leader_node t t.view in
  if t.vstatus <> Normal || not (Nodeid.equal leader t.me) then begin
    Metrics.inc t.c_redirects;
    Protocol.Not_leader { view = t.view; leader = Nodeid.to_int leader }
  end
  else begin
    Metrics.inc t.c_submits;
    if not (effective t op) then
      (* already (going to be) true: ack without burning an opnum, so
         the log stays aligned with the directory version — and client
         retries after a failover absorb as no-ops *)
      Protocol.Ack
    else begin
      let view = t.view in
      let opnum = Version.succ t.opnum in
      t.opnum <- opnum;
      t.suffix <- t.suffix @ [ (opnum, op) ];
      t.suffix_view <- view;
      let a = { a_view = view; a_from = [ t.me_ix ]; a_done = Ivar.create () } in
      Hashtbl.replace t.acks (Version.to_int opnum) a;
      let commit_pt = commit t in
      Array.iteri
        (fun ix peer ->
          if ix <> t.me_ix then
            Engine.spawn t.engine
              ~name:
                (Printf.sprintf "repl-prep-%s-set%d-op%d-to%d" (Nodeid.to_string t.me)
                   t.set_id (Version.to_int opnum) ix)
              (fun () ->
                match
                  Rpc.call t.rpc ~src:t.me ~dst:peer ~timeout:t.rpc_timeout
                    (Protocol.Repl
                       (Protocol.Prepare
                          { group = t.set_id; view; opnum; op; commit = commit_pt }))
                with
                | Ok (Protocol.Repl_ok { view = v; opnum = o; from })
                  when v = view && Version.equal o opnum ->
                    on_prepare_ok t ~view:v ~opnum:o ~from
                | Ok (Protocol.Repl_reject { view = v }) -> learn_higher t v
                | Ok _ | Error _ -> ()))
        t.members;
      if n_members t = 1 then try_commit t;
      match Ivar.read_timeout t.engine a.a_done t.submit_patience with
      | Some resp -> resp
      | None ->
          (* still prepared, not yet committed: the entry stays in the
             log and may commit later; the client sees a retryable
             non-answer rather than a false Ack *)
          Protocol.Not_leader { view = t.view; leader = Nodeid.to_int (leader_node t t.view) }
    end
  end

(* ------------------------------------------------------------------ *)
(* Construction and background fibers                                 *)
(* ------------------------------------------------------------------ *)

(* Staggered per-member suspicion: symmetric timeouts make every backup
   suspect in the same event batch and duel over the next view; a
   deterministic per-ix skew elects one initiator first. *)
let suspect_threshold t = t.suspect_after *. (1.0 +. (0.13 *. float_of_int t.me_ix))

let create ?(heartbeat_every = 2.0) ?(suspect_after = 6.0) ?(rpc_timeout = 4.0)
    ?(submit_patience = 20.0) ?ledger rpc ~set_id ~members ~me ~server =
  let members =
    List.sort_uniq (fun a b -> Int.compare (Nodeid.to_int a) (Nodeid.to_int b)) members
    |> Array.of_list
  in
  if Array.length members = 0 then invalid_arg "Group.create: no members";
  let me_ix =
    match Array.to_list members |> List.mapi (fun i m -> (i, m))
          |> List.find_opt (fun (_, m) -> Nodeid.equal m me)
    with
    | Some (i, _) -> i
    | None -> invalid_arg "Group.create: me not in members"
  in
  (try ignore (Node_server.directory_truth server ~set_id)
   with Not_found -> invalid_arg "Group.create: server does not host the directory");
  let m = Engine.metrics (Rpc.engine rpc) in
  let labels = [ ("group", string_of_int set_id) ] in
  let t =
    {
      rpc;
      engine = Rpc.engine rpc;
      set_id;
      members;
      me;
      me_ix;
      server;
      heartbeat_every;
      suspect_after;
      rpc_timeout;
      submit_patience;
      ledger;
      view = 0;
      vstatus = Normal;
      last_normal = 0;
      suffix = [];
      suffix_view = 0;
      opnum = Version.zero;
      last_heard = 0.0;
      vc_entered = 0.0;
      acks = Hashtbl.create 16;
      svc_view = -1;
      svc_votes = [];
      svc_sent = -1;
      dvc_sent = -1;
      dvc_entries = [];
      dvc_done = -1;
      until = infinity;
      c_submits = Metrics.counter m ~labels "repl.submits";
      c_commits = Metrics.counter m ~labels "repl.commits";
      c_view_changes = Metrics.counter m ~labels "repl.view_changes";
      c_redirects = Metrics.counter m ~labels "repl.redirects";
      c_state_transfers = Metrics.counter m ~labels "repl.state_transfers";
    }
  in
  Node_server.attach_repl server
    {
      Node_server.repl_submit =
        (fun ~set_id op -> if set_id = t.set_id then Some (submit t op) else None);
      repl_governs = (fun ~set_id -> set_id = t.set_id);
      repl_handle = (fun r -> handle t r);
    };
  t

let start t ~until =
  t.until <- until;
  t.last_heard <- now t;
  let topo = Rpc.topology t.rpc in
  (* Heartbeats: leader liveness + commit propagation. *)
  Engine.spawn t.engine
    ~name:(Printf.sprintf "repl-heartbeat-%s-set%d" (Nodeid.to_string t.me) t.set_id)
    (fun () ->
      let rec loop () =
        if now t < t.until then begin
          Engine.sleep t.engine t.heartbeat_every;
          if now t < t.until && Topology.node_up topo t.me && is_leader t then begin
            let view = t.view in
            let commit_pt = commit t in
            Array.iteri
              (fun ix peer ->
                if ix <> t.me_ix then
                  Engine.spawn t.engine
                    ~name:
                      (Printf.sprintf "repl-hb-%s-set%d-to%d" (Nodeid.to_string t.me)
                         t.set_id ix)
                    (fun () ->
                      match
                        Rpc.call t.rpc ~src:t.me ~dst:peer ~timeout:t.rpc_timeout
                          (Protocol.Repl
                             (Protocol.Commit
                                { group = t.set_id; view; commit = commit_pt }))
                      with
                      | Ok (Protocol.Repl_reject { view = v }) -> learn_higher t v
                      | Ok _ | Error _ -> ()))
              t.members
          end;
          loop ()
        end
      in
      loop ());
  (* Suspicion monitor: timeout-driven view change, recovery catch-up. *)
  Engine.spawn t.engine
    ~name:(Printf.sprintf "repl-monitor-%s-set%d" (Nodeid.to_string t.me) t.set_id)
    (fun () ->
      let was_up = ref (Topology.node_up topo t.me) in
      let period = t.suspect_after /. 4.0 *. (1.0 +. (0.05 *. float_of_int t.me_ix)) in
      let rec loop () =
        if now t < t.until then begin
          Engine.sleep t.engine period;
          (if now t < t.until then
             let up = Topology.node_up topo t.me in
             if up && not !was_up then begin
               (* fresh recovery: don't suspect a leader we have not
                  listened to yet — state-transfer back in first *)
               t.last_heard <- now t;
               note t "recovered; catching up";
               ignore (catch_up t ~from:(leader_node t t.view))
             end;
             was_up := up;
             if up then
               match t.vstatus with
               | Normal when not (is_leader t) ->
                   if now t -. t.last_heard > suspect_threshold t then begin
                     note t "suspect leader n%d silent for %.3g"
                       (Nodeid.to_int (leader_node t t.view))
                       (now t -. t.last_heard);
                     start_view_change t (t.view + 1)
                   end
               | Normal -> ()
               | View_change ->
                   if now t -. t.vc_entered > suspect_threshold t then begin
                     note t "view-change stalled; escalating";
                     t.vc_entered <- now t;
                     start_view_change t (t.view + 1)
                   end);
          loop ()
        end
      in
      loop ())

(* ------------------------------------------------------------------ *)
(* Introspection (tests, scenario probes, oracle evidence)            *)
(* ------------------------------------------------------------------ *)

let view t = t.view
let status t = t.vstatus
let me t = t.me
let member_ix t = t.me_ix
let members t = Array.to_list t.members
let opnum t = t.opnum
let suffix_length t = List.length t.suffix
let set_id t = t.set_id
let leader_hint t = leader_node t t.view

(* Is the group, seen from this member, in a stable Normal view?  Used
   by the liveness probes: the member is the up leader of its view and a
   majority of members are up and Normal in the same view. *)
let stable_from groups g =
  let topo = Rpc.topology g.rpc in
  g.vstatus = Normal
  && leader_ix g g.view = g.me_ix
  && Topology.node_up topo g.me
  &&
  let agreeing =
    List.length
      (List.filter
         (fun o ->
           Topology.node_up topo o.me && o.vstatus = Normal && o.view = g.view)
         groups)
  in
  agreeing >= majority g

let stable groups = List.exists (fun g -> stable_from groups g) groups
