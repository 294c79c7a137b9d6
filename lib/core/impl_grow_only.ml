module Client = Weakset_store.Client
module Oid = Weakset_store.Oid
open Impl_common

type state = {
  ctx : ctx;
  register : bool;
  mutable opened : bool;
  mutable open_failure : Client.error option;
  mutable registered : bool;
  mutable yielded : Oid.Set.t;
}

let ensure_open st =
  if not st.opened then begin
    st.opened <- true;
    if st.register then
      match Client.iter_open st.ctx.client st.ctx.sref with
      | Ok () ->
          st.registered <- true;
          inst_first st.ctx
      | Error e -> st.open_failure <- Some e
    else inst_first st.ctx
  end

let deregister st =
  if st.registered then begin
    st.registered <- false;
    ignore (Client.iter_close st.ctx.client st.ctx.sref)
  end

let read_members st =
  Client.dir_read st.ctx.client ~from:st.ctx.sref.Weakset_store.Protocol.coordinator
    ~set_id:st.ctx.sref.Weakset_store.Protocol.set_id

let next st () =
  ensure_open st;
  match st.open_failure with
  | Some e -> Iterator.Failed e
  | None ->
      inst_started st.ctx;
      let rec attempt fetch_failures =
        match read_members st with
        | Error e ->
            (* Pessimistic: if we cannot even read the membership, fail. *)
            inst_completed st.ctx Weakset_spec.Sstate.Fails;
            Iterator.Failed e
        | Ok (version, members) -> (
            let members = Oid.Set.of_list members in
            (* Linearise here: the invocation acts on exactly this reply's
               membership, so record it as the pre-state rather than the
               directory at receipt (which in-flight mutations may have
               already changed). *)
            inst_retry ~version ~linearised:members st.ctx;
            let remaining = Oid.Set.diff members st.yielded in
            if Oid.Set.is_empty remaining then begin
              inst_completed st.ctx Weakset_spec.Sstate.Returns;
              Iterator.Done
            end
            else
              match pick_reachable st.ctx remaining with
              | None when Weakset_obs.Mutation.(armed Grow_only_drop) ->
                  (* Planted bug (mutation testing): silently drop the
                     unreachable members and pretend the iteration is
                     complete instead of signalling the failure. *)
                  st.yielded <- Oid.Set.union st.yielded remaining;
                  inst_completed st.ctx Weakset_spec.Sstate.Returns;
                  Iterator.Done
              | None ->
                  inst_completed st.ctx Weakset_spec.Sstate.Fails;
                  Iterator.Failed Client.Unreachable
              | Some oid -> (
                  match Client.fetch st.ctx.client oid with
                  | Ok v ->
                      st.yielded <- Oid.Set.add oid st.yielded;
                      inst_yield st.ctx oid;
                      Iterator.Yield (oid, v)
                  | Error Client.No_such_object ->
                      inst_completed st.ctx Weakset_spec.Sstate.Fails;
                      Iterator.Failed Client.No_such_object
                  | Error
                      ( Client.Unreachable | Client.Timeout | Client.No_service
                      | Client.Overloaded | Client.Budget_exhausted ) ->
                      if fetch_failures + 1 >= st.ctx.max_fetch_attempts then begin
                        inst_completed st.ctx Weakset_spec.Sstate.Fails;
                        Iterator.Failed Client.Timeout
                      end
                      else begin
                        inst_retry st.ctx;
                        attempt (fetch_failures + 1)
                      end))
      in
      attempt 0

let open_ ?(register = true) ctx =
  let st =
    {
      ctx;
      register;
      opened = false;
      open_failure = None;
      registered = false;
      yielded = Oid.Set.empty;
    }
  in
  Iterator.make ~next:(next st)
    ~close:(fun () ->
      inst_detach ctx;
      deregister st)
    ?monitor:(Option.map Instrument.monitor ctx.instrument)
    ()
