(* A bounded LRU cache of compiled plans.

   Keys are opaque strings (Session builds them from the structural
   digest of the alpha-canonical query plus the Exec_opts fingerprint).
   Every entry remembers the database stats epoch it was compiled
   under; a lookup under a different epoch drops the entry and reports
   a miss — the plan's empty-range decisions (adaptation and range
   extension, through Standard_form.range_is_empty) may no longer hold,
   so the caller must re-plan.  Nothing else in a plan depends on the
   data: join order and access paths are chosen per execution.

   Each cache keeps its own stats record, and every event also bumps
   the process-wide Obs.Metrics counters (plan_cache.hits / .misses /
   .evictions / .invalidations) so traces and EXPLAIN ANALYZE can
   attribute cache behaviour without a handle on the session. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
}

type entry = {
  e_plan : Plan.t;
  e_epoch : int;
  mutable e_used : int;  (* recency tick of the last hit *)
}

type t = {
  cap : int;
  tbl : (string, entry) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity < 1";
  {
    cap = capacity;
    tbl = Hashtbl.create (2 * capacity);
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
  }

let capacity t = t.cap
let length t = Hashtbl.length t.tbl

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    invalidations = t.invalidations;
  }

(* Guarded against the zero-lookup cache: 0.0, never NaN. *)
let hit_rate (s : stats) =
  let lookups = s.hits + s.misses + s.invalidations in
  if lookups = 0 then 0.0 else float_of_int s.hits /. float_of_int lookups

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

let find t ~epoch key =
  match Hashtbl.find_opt t.tbl key with
  | None ->
    t.misses <- t.misses + 1;
    Obs.Metrics.incr "plan_cache.misses";
    None
  | Some e when e.e_epoch = epoch ->
    e.e_used <- next_tick t;
    t.hits <- t.hits + 1;
    Obs.Metrics.incr "plan_cache.hits";
    Some e.e_plan
  | Some _ ->
    (* Stale: compiled under different statistics. *)
    Hashtbl.remove t.tbl key;
    t.invalidations <- t.invalidations + 1;
    Obs.Metrics.incr "plan_cache.invalidations";
    None

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, used) when used <= e.e_used -> acc
        | _ -> Some (key, e.e_used))
      t.tbl None
  in
  match victim with
  | None -> ()
  | Some (key, _) ->
    Hashtbl.remove t.tbl key;
    t.evictions <- t.evictions + 1;
    Obs.Metrics.incr "plan_cache.evictions"

let add t ~epoch key plan =
  if (not (Hashtbl.mem t.tbl key)) && Hashtbl.length t.tbl >= t.cap then
    evict_lru t;
  Hashtbl.replace t.tbl key
    { e_plan = plan; e_epoch = epoch; e_used = next_tick t }

let clear t = Hashtbl.reset t.tbl
