(* Raw latency samples and their order statistics.

   Quantiles are nearest-rank order statistics of the recorded values:
   the q-quantile of n samples is the ceil(q n)-th smallest.  Nothing is
   bucketed, so two runs that differ by a few percent report different
   numbers.  Quantile levels are given in per-mille so the rank is exact
   integer arithmetic.

   The values live in a Bigarray, outside the OCaml heap, so the
   benchmark's own bookkeeping — which grows with the number of requests
   — does not show in the heap figure it reports for the program. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type t = { mutable data : buf; mutable n : int }

let alloc n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
let create () = { data = alloc 1024; n = 0 }

let add t x =
  if t.n = Bigarray.Array1.dim t.data then begin
    let d = alloc (2 * t.n) in
    Bigarray.Array1.blit t.data (Bigarray.Array1.sub d 0 t.n);
    t.data <- d
  end;
  Bigarray.Array1.unsafe_set t.data t.n x;
  t.n <- t.n + 1

let count t = t.n

let append ~into src =
  for i = 0 to src.n - 1 do
    add into src.data.{i}
  done

let sorted t =
  let a = Array.init t.n (fun i -> t.data.{i}) in
  Array.sort Float.compare a;
  a

(* 1-based rank of the [pm]-per-mille quantile among [n] samples. *)
let rank pm n = max 1 (min n (((pm * n) + 999) / 1000))

let quantile sorted pm =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(rank pm n - 1)

(* Samples strictly above the [pm] quantile's rank: a tail percentile is
   only reported when at least ten samples lie beyond it. *)
let beyond pm n = n - rank pm n
