(* A bounded LRU cache of compiled plans.

   Keys are opaque strings (Session builds them from the structural
   digest of the alpha-canonical query plus the Exec_opts fingerprint).
   Every entry keeps the emptiness answers its plan was compiled under
   (Standard_form.recording); a lookup on a snapshot where one of them
   no longer holds drops the entry and reports an invalidation, so the
   caller re-plans.  Nothing else in a plan depends on the data: join
   order and access paths are chosen per execution.

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
  e_planned : Plan.t * Standard_form.answers;
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

let find t db key =
  match Hashtbl.find_opt t.tbl key with
  | None ->
    t.misses <- t.misses + 1;
    Obs.Metrics.incr "plan_cache.misses";
    None
  | Some e when Standard_form.still_hold db (snd e.e_planned) ->
    e.e_used <- next_tick t;
    t.hits <- t.hits + 1;
    Obs.Metrics.incr "plan_cache.hits";
    Some e.e_planned
  | Some _ ->
    (* Stale: an emptiness answer it was compiled under has changed. *)
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

let add t key planned =
  if (not (Hashtbl.mem t.tbl key)) && Hashtbl.length t.tbl >= t.cap then
    evict_lru t;
  Hashtbl.replace t.tbl key
    { e_planned = planned; e_used = next_tick t }

let clear t = Hashtbl.reset t.tbl
