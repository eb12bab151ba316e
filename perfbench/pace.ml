(* The host's speed, measured beside the program.

   The benchmark runs on shared virtual machines whose speed moves by up
   to a third in phases of tens of seconds to minutes, with no CPU steal
   to show for it.  Two sets of runs of the same code then disagree by
   more than any useful bound.  So the loop times a fixed reference
   kernel every few hundred milliseconds, and the timed figures are
   scaled to a host on which that kernel takes [reference_ms]: a figure
   measured while the kernel ran 1.3 times slower than that is divided
   (a time) or multiplied (a rate) by 1.3.

   The kernel is the benchmark's own code, not the library's, so a
   change to the library's code cannot make it faster.  It does what the query
   engine spends its time on: small allocations, string hashing and
   comparison in a hash table, a balanced-tree map and a sort.  Of the
   kernels tried — this one, a pure integer-hash loop, a walk of dependent
   loads over 4 MB, and a mix of the last two — it followed the program
   most closely: over a four-minute uni-adhoc run in which the program's
   rate per 10 s moved by a third, the rate times the kernel's time
   varied by a third as much as the rate alone (coefficient of variation
   0.034 against 0.115); the integer loop took out a quarter of the
   variation, the memory walk a third, the mix half. *)

module Smap = Map.Make (String)

(* The kernel's time, in ms, on the host the scaled figures refer to: a
   2-vCPU Xeon virtual machine at 2.1 GHz in a quiet phase. *)
let reference_ms = 0.45

(* Kernels per probe; the probe's time is their median, so a kernel that
   a collection or the other domain stopped does not set it. *)
let per_probe = 5

(* The speed factor is the median of the last [window] probes. *)
let window = 8

type t = {
  keys : string array;
  recent : float array;  (** ring of the last [window] probe times, ms *)
  mutable probes : int;
  factor : float Atomic.t;  (** read by every client domain *)
  all : Samples.t;  (** every probe time of the loop, ms *)
}

let create () =
  {
    keys = Array.init 800 (fun i -> Printf.sprintf "key-%d-%d" i (i * 7919 mod 1000));
    recent = Array.make window nan;
    probes = 0;
    factor = Atomic.make 1.0;
    all = Samples.create ();
  }

let kernel t =
  let h = Hashtbl.create 1024 in
  Array.iteri (fun i k -> Hashtbl.replace h k i) t.keys;
  let s = ref 0 in
  Array.iter (fun k -> s := !s + Hashtbl.find h k) t.keys;
  let m = Array.fold_left (fun m k -> Smap.add k (String.length k) m) Smap.empty t.keys in
  let l = List.sort compare (Array.to_list (Array.map (fun k -> (String.length k, k)) t.keys)) in
  ignore (Sys.opaque_identity (!s, m, l))

let median_of a n =
  let s = Array.sub a 0 n in
  Array.sort Float.compare s;
  if n land 1 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The median time of [per_probe] kernels, in ms. *)
let measure t =
  let times = Array.make per_probe 0.0 in
  for i = 0 to per_probe - 1 do
    let t0 = Unix.gettimeofday () in
    kernel t;
    times.(i) <- (Unix.gettimeofday () -. t0) *. 1e3
  done;
  median_of times per_probe

(* A probe of the loop: its time is folded into the factor. *)
let probe t =
  let ms = measure t in
  Samples.add t.all ms;
  t.recent.(t.probes mod window) <- ms;
  t.probes <- t.probes + 1;
  Atomic.set t.factor (median_of t.recent (min t.probes window) /. reference_ms)

(* How much slower than the reference host this one runs now. *)
let factor t = Atomic.get t.factor
