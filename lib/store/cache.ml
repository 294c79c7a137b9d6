(* Per-node client cache for directory memberships and object values.

   Coherence follows the Coda callback model, degraded gracefully: the
   server grants a TTL lease with each cacheable answer and promises an
   Inval callback on the next mutation; while the holder is reachable
   the callback keeps the cache fresh to within one message flight, and
   when it is not, the lease bound caps staleness — an expired entry is
   discarded at lookup time, never served.

   Object values are immutable once written (the store never overwrites
   an oid), so the object pool needs no invalidation, only the capacity
   bound: it is LRU-evicted.  Directory memberships are few (one entry
   per set) but mutable, so they carry the full lease machinery. *)

module Engine = Weakset_sim.Engine
module Bus = Weakset_obs.Bus
module Event = Weakset_obs.Event
module Metrics = Weakset_obs.Metrics

type config = { capacity : int; ttl : float }

let default_config = { capacity = 256; ttl = 30.0 }

type dir_entry = {
  d_version : Version.t;
  d_members : Oid.t list;
  d_granted_at : float;
  d_expires_at : float;
}

type obj_entry = {
  o_value : Svalue.t;
  o_granted_at : float;
  o_expires_at : float;
  mutable o_tick : int;
}

type stats = {
  hit_dir : int;
  hit_obj : int;
  miss_dir : int;
  miss_obj : int;
  inval : int;
  self_inval : int;
  expire_dir : int;
  expire_obj : int;
  evict : int;
}

type t = {
  config : config;
  engine : Engine.t;
  node : int;
  dirs : (int, dir_entry) Hashtbl.t;
  objs : (int, obj_entry) Hashtbl.t; (* keyed by Oid num *)
  mutable tick : int; (* LRU clock: bumped on every object touch *)
  c_hit_dir : Metrics.counter;
  c_hit_obj : Metrics.counter;
  c_miss_dir : Metrics.counter;
  c_miss_obj : Metrics.counter;
  c_inval : Metrics.counter;
  c_self_inval : Metrics.counter;
  c_expire_dir : Metrics.counter;
  c_expire_obj : Metrics.counter;
  c_evict : Metrics.counter;
}

let labels ~node = [ ("node", "n" ^ string_of_int node) ]

let create ?(config = default_config) engine ~node =
  let m = Engine.metrics engine in
  let labels = labels ~node in
  let c name = Metrics.counter m ~labels name in
  {
    config;
    engine;
    node;
    dirs = Hashtbl.create 4;
    objs = Hashtbl.create 64;
    tick = 0;
    c_hit_dir = c "cache.hit.dir";
    c_hit_obj = c "cache.hit.obj";
    c_miss_dir = c "cache.miss.dir";
    c_miss_obj = c "cache.miss.obj";
    c_inval = c "cache.inval";
    c_self_inval = c "cache.self_inval";
    c_expire_dir = c "cache.expire.dir";
    c_expire_obj = c "cache.expire.obj";
    c_evict = c "cache.evict";
  }

let node t = t.node
let config t = t.config
let now t = Engine.now t.engine
let emit t kind = Bus.emit (Engine.bus t.engine) ~time:(now t) kind

let stats t =
  let m = Engine.metrics t.engine in
  let peek name = Metrics.peek_counter m ~labels:(labels ~node:t.node) name in
  {
    hit_dir = peek "cache.hit.dir";
    hit_obj = peek "cache.hit.obj";
    miss_dir = peek "cache.miss.dir";
    miss_obj = peek "cache.miss.obj";
    inval = peek "cache.inval";
    self_inval = peek "cache.self_inval";
    expire_dir = peek "cache.expire.dir";
    expire_obj = peek "cache.expire.obj";
    evict = peek "cache.evict";
  }

(* --- directory memberships ---------------------------------------- *)

let miss_dir t ~set_id =
  Metrics.inc t.c_miss_dir;
  emit t (Event.Cache_miss { node = t.node; ckind = Event.Cache_dir; id = set_id })

let find_dir t ~set_id =
  match Hashtbl.find_opt t.dirs set_id with
  | None ->
      miss_dir t ~set_id;
      None
  | Some e when now t >= e.d_expires_at ->
      (* Lease over: the partition-tolerant staleness bound.  The entry
         is discarded, and the lookup proceeds as a miss. *)
      Hashtbl.remove t.dirs set_id;
      Metrics.inc t.c_expire_dir;
      emit t (Event.Lease_expire { node = t.node; ckind = Event.Cache_dir; id = set_id });
      miss_dir t ~set_id;
      None
  | Some e ->
      Metrics.inc t.c_hit_dir;
      emit t
        (Event.Cache_hit
           {
             node = t.node;
             ckind = Event.Cache_dir;
             id = set_id;
             version = Version.to_int e.d_version;
             age = now t -. e.d_granted_at;
           });
      Some (e.d_version, e.d_members)

let store_dir t ~set_id ~version ~members ~lease =
  if lease > 0.0 then
    let granted = now t in
    Hashtbl.replace t.dirs set_id
      {
        d_version = version;
        d_members = members;
        d_granted_at = granted;
        d_expires_at = granted +. lease;
      }

(* Under [Mutation.Inval_drop] wire Inval callbacks are silently
   dropped, so cached memberships go stale while connected — exactly the
   coherence violation the Stale_beyond_lease oracle verdict must catch. *)
let wire_inval t ~set_id ~version =
  if not (Weakset_obs.Mutation.(armed Inval_drop)) then
    match Hashtbl.find_opt t.dirs set_id with
    | None -> () (* nothing cached: the callback raced a local drop *)
    | Some _ ->
        Hashtbl.remove t.dirs set_id;
        Metrics.inc t.c_inval;
        emit t
          (Event.Cache_inval { node = t.node; set_id; version = Version.to_int version })

(* Read-your-writes: a client that just mutated the directory drops its
   own cached view rather than waiting for its own callback to loop
   back through the network. *)
let self_inval t ~set_id =
  if Hashtbl.mem t.dirs set_id then begin
    Hashtbl.remove t.dirs set_id;
    Metrics.inc t.c_self_inval
  end

(* --- object values ------------------------------------------------- *)

let touch t e =
  t.tick <- t.tick + 1;
  e.o_tick <- t.tick

let miss_obj t ~num =
  Metrics.inc t.c_miss_obj;
  emit t (Event.Cache_miss { node = t.node; ckind = Event.Cache_obj; id = num })

let find_obj ?(count_miss = true) t oid =
  let num = Oid.num oid in
  match Hashtbl.find_opt t.objs num with
  | None ->
      if count_miss then miss_obj t ~num;
      None
  | Some e when now t >= e.o_expires_at ->
      Hashtbl.remove t.objs num;
      Metrics.inc t.c_expire_obj;
      emit t (Event.Lease_expire { node = t.node; ckind = Event.Cache_obj; id = num });
      if count_miss then miss_obj t ~num;
      None
  | Some e ->
      touch t e;
      Metrics.inc t.c_hit_obj;
      emit t
        (Event.Cache_hit
           {
             node = t.node;
             ckind = Event.Cache_obj;
             id = num;
             version = 0;
             age = now t -. e.o_granted_at;
           });
      Some e.o_value

(* Evict the least-recently-used object.  The scan orders by (tick, key)
   so eviction is a pure function of the access history — no dependence
   on hash-bucket layout, which keeps seed-identical runs byte-identical. *)
let evict_one t =
  let victim =
    Hashtbl.fold
      (fun num e acc ->
        match acc with
        | Some (_, bt, bn) when (e.o_tick, num) >= (bt, bn) -> acc
        | _ -> Some (num, e.o_tick, num))
      t.objs None
  in
  match victim with
  | None -> ()
  | Some (num, _, _) ->
      Hashtbl.remove t.objs num;
      Metrics.inc t.c_evict

let store_obj t oid value ~lease =
  if t.config.capacity > 0 && lease > 0.0 then begin
    let granted = now t in
    let e =
      { o_value = value; o_granted_at = granted; o_expires_at = granted +. lease; o_tick = 0 }
    in
    touch t e;
    Hashtbl.replace t.objs (Oid.num oid) e;
    while Hashtbl.length t.objs > t.config.capacity do
      evict_one t
    done
  end

let obj_count t = Hashtbl.length t.objs
let dir_count t = Hashtbl.length t.dirs
let contains_obj t oid = Hashtbl.mem t.objs (Oid.num oid)
