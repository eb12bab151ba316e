(** A bounded LRU cache of compiled plans, each kept with the
    emptiness answers it was compiled under.

    A lookup validates the entry on the caller's snapshot
    ({!Standard_form.still_hold}); if an answer changed, the entry is
    dropped as an invalidation.  Every hit/miss/eviction/invalidation
    bumps both the per-cache {!stats} and the global [plan_cache.*]
    counters in {!Obs.Metrics}. *)

type t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
}

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 64 plans; at least 1. *)

val length : t -> int

val find :
  t -> Relalg.Database.t -> string -> (Plan.t * Standard_form.answers) option
(** The cached plan with the emptiness answers it was compiled under.
    [None] on absence (miss) or when one of those answers fails on the
    snapshot (invalidation — the entry is dropped); the caller re-plans
    and {!add}s. *)

val add : t -> string -> Plan.t * Standard_form.answers -> unit
(** Insert (or refresh) a plan, evicting the least recently used entry
    when the cache is full. *)

val clear : t -> unit
val stats : t -> stats

val hit_rate : stats -> float
(** Hits over lookups (hits + misses + invalidations); 0.0 — never NaN
    — when the cache has seen no lookups. *)
