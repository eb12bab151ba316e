(* The knobs of one query execution, gathered into a single record so
   call sites name the fields they set and new knobs do not ripple
   through every signature as extra optional labels. *)

type t = {
  strategy : Strategy.t;
  join_order : Combination.join_order;
  jobs : int;
  par_threshold : int;
  batch_size : int;
  use_index : bool;
}

let default_par_threshold = 4096

(* Secondary-index access paths are on unless PASCALR_NO_INDEX is set
   to something truthy — the forced-heap-scan CI leg and the
   differential oracle both run under PASCALR_NO_INDEX=1. *)
let default_use_index =
  match Sys.getenv_opt "PASCALR_NO_INDEX" with
  | Some ("" | "0") | None -> true
  | Some _ -> false

(* Default window size of the vectorized stream kernels.  Big enough to
   amortize the per-batch dispatch, small enough that the gather buffers
   of a join stay cache-resident.  Every size from [1] up computes the
   same relations; the CI leg under PASCALR_BATCH_SIZE=1 runs the whole
   suite through single-row windows to cover the window boundaries. *)
let default_batch_size =
  match Sys.getenv_opt "PASCALR_BATCH_SIZE" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> 2048)
  | None -> 2048

(* Default worker count: the PASCALR_JOBS environment variable (how the
   CI matrix pins both the serial and the 4-domain suite) if set to a
   positive integer, otherwise what the hardware offers. *)
let default_jobs =
  match Sys.getenv_opt "PASCALR_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> max 1 (Domain.recommended_domain_count ()))
  | None -> max 1 (Domain.recommended_domain_count ())

let default =
  {
    strategy = Strategy.full;
    join_order = Combination.Cost_ordered;
    jobs = default_jobs;
    par_threshold = default_par_threshold;
    batch_size = default_batch_size;
    use_index = default_use_index;
  }

let make ?(strategy = Strategy.full)
    ?(join_order = Combination.Cost_ordered) ?(jobs = default_jobs)
    ?(par_threshold = default_par_threshold)
    ?(batch_size = default_batch_size) ?(use_index = default_use_index) () =
  {
    strategy;
    join_order;
    jobs = max 1 jobs;
    par_threshold = max 0 par_threshold;
    batch_size = max 1 batch_size;
    use_index;
  }

let par t =
  if t.jobs <= 1 then None
  else Some { Relalg.Domain_pool.jobs = t.jobs; threshold = t.par_threshold }

let join_order_to_string = function
  | Combination.Cost_ordered -> "ordered"
  | Combination.Declaration -> "declaration"

let join_order_of_string = function
  | "ordered" -> Some Combination.Cost_ordered
  | "declaration" -> Some Combination.Declaration
  | _ -> None

(* Injective over the record: each strategy flag has its own token in
   Strategy.to_string, the join order follows after '/', then the
   parallelism and batching knobs.  jobs, par_threshold and batch_size
   are part of the fingerprint — and hence of every plan-cache key — so
   plans prepared under different execution settings never collide in
   the cache.  The access-path override appends a token only when set
   off its default (no index), keeping default fingerprints stable
   across versions while still separating overridden plans in the
   cache. *)
let fingerprint t =
  Fmt.str "%s/%s/j%d/t%d/b%d%s"
    (Strategy.to_string t.strategy)
    (join_order_to_string t.join_order)
    t.jobs t.par_threshold t.batch_size
    (if t.use_index then "" else "/ix0")

let pp ppf t = Fmt.string ppf (fingerprint t)
