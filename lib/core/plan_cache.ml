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
  mutable e_live : bool;  (* still in the table: its holder skips the key *)
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

let planned e = e.e_planned

let remove t key e =
  Hashtbl.remove t.tbl key;
  e.e_live <- false

(* A caller that holds the entry it was last served for [key] skips
   hashing the key while that entry is still cached. *)
let find ?held t db key =
  match
    match held with
    | Some e when e.e_live -> Some e
    | Some _ | None -> Hashtbl.find_opt t.tbl key
  with
  | None ->
    t.misses <- t.misses + 1;
    Obs.Metrics.incr "plan_cache.misses";
    None
  | Some e when Standard_form.still_hold db (snd e.e_planned) ->
    e.e_used <- next_tick t;
    t.hits <- t.hits + 1;
    Obs.Metrics.incr "plan_cache.hits";
    Some e
  | Some e ->
    (* Stale: an emptiness answer it was compiled under has changed. *)
    remove t key e;
    t.invalidations <- t.invalidations + 1;
    Obs.Metrics.incr "plan_cache.invalidations";
    None

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, v) when v.e_used <= e.e_used -> acc
        | _ -> Some (key, e))
      t.tbl None
  in
  match victim with
  | None -> ()
  | Some (key, e) ->
    remove t key e;
    t.evictions <- t.evictions + 1;
    Obs.Metrics.incr "plan_cache.evictions"

let add t key planned =
  if (not (Hashtbl.mem t.tbl key)) && Hashtbl.length t.tbl >= t.cap then
    evict_lru t;
  let e = { e_planned = planned; e_used = next_tick t; e_live = true } in
  Hashtbl.replace t.tbl key e;
  e

let clear t =
  Hashtbl.iter (fun _ e -> e.e_live <- false) t.tbl;
  Hashtbl.reset t.tbl
