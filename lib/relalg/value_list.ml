(* Value lists for quantifier evaluation in the collection phase
   (paper Section 4.4, strategy 4).

   "When vnrel is read, instead of a complete index only its value list
   is generated.  Afterwards, when vmrel is read, the quantifier of vn
   can be evaluated."

   Three storage policies implement the paper's refinements:
   - [Full]        all distinct values (general case);
   - [Bounds]      only min and max — sufficient when the join term's
                   operator is < <= > >= ("only one component value of
                   vnrel must be stored");
   - [At_most_one] the first value plus a saw-two-distinct flag —
                   sufficient for ALL combined with =, and SOME combined
                   with <> ("at most one value need to be stored").

   A [Full] list keeps its values in one of two sets, chosen from the
   declared domain of the column it is built from.  PASCAL/R declares
   every component's domain, and a subrange, enumeration or boolean
   domain is finite: its values map to bits [n - lo], the ordinal, or
   [false]/[true].  A bitset over it answers a membership test and an
   insert with one bit access and no hashing, and it is used while it
   takes no more 63-bit words than the build scans tuples (domain
   width <= 63 x rows), so it never costs more memory than the scan
   touches.  Strings, references, the language's [integer], and
   domains too wide for the build keep a hash set.  The two sets hold
   the same values and answer every question alike. *)

type storage = Full | Bounds | At_most_one

type quantifier = Q_some | Q_all

module Vtable = Value_key.Vtable

(* How a value of a finite declared domain maps to its bit. *)
type dom =
  | Ints of { lo : int; hi : int }
  | Enum of Value.enum_info
  | Bools

type set =
  | Reduced  (* Bounds, At_most_one: no set *)
  | Hashed of unit Vtable.t
  | Bits of dom * Bytes.t  (* bit [i land 7] of byte [i lsr 3]: index [i] *)

type t = {
  storage : storage;
  mutable set : set;
  mutable distinct : int;  (* Full: distinct values in [set], once derived *)
  mutable stale : bool;    (* Full: a value came in since [distinct], [vmin]
                              and [vmax] were derived *)
  mutable vmin : Value.t option;
  mutable vmax : Value.t option;
  mutable first : Value.t option;  (* reduced storage only *)
  mutable distinct2 : bool;        (* reduced storage: saw >= 2 distinct values *)
}

(* A bitset domain for a build that scans [rows] tuples: the declared
   domain is finite and its bitset takes at most [rows] 63-bit words. *)
let bitset_domain domain ~rows =
  match Vtype.size domain with
  | Some n when (n / 63) + Bool.to_int (n mod 63 <> 0) <= rows -> (
    match domain with
    | Vtype.TInt { lo; hi } -> Some (Ints { lo; hi }, n)
    | Vtype.TEnum info -> Some (Enum info, n)
    | Vtype.TBool -> Some (Bools, n)
    | Vtype.TStr _ | Vtype.TRef _ -> None)
  | Some _ | None -> None

let create ?(storage = Full) ~domain ~rows () =
  let set =
    match storage with
    | Bounds | At_most_one -> Reduced
    | Full -> (
      match bitset_domain domain ~rows with
      | Some (dom, n) -> Bits (dom, Bytes.make ((n + 7) / 8) '\000')
      | None -> Hashed (Vtable.create 64))
  in
  {
    storage;
    set;
    distinct = 0;
    stale = false;
    vmin = None;
    vmax = None;
    first = None;
    distinct2 = false;
  }

let is_bitset t = match t.set with Bits _ -> true | Reduced | Hashed _ -> false

(* ------------------------------------------------------------------ *)
(* Bitsets *)

(* The index of [v] in a bitset over [dom], or -1 when [v] is of the
   domain's kind but outside it.  A value of another kind is a type
   error, as comparing it with a member would be. *)
let index_of dom v =
  match dom, v with
  | Ints { lo; hi }, Value.VInt n -> if lo <= n && n <= hi then n - lo else -1
  | Enum info, Value.VEnum (info', i)
    when info == info' || String.equal info.Value.enum_name info'.Value.enum_name ->
    if i >= 0 && i < Array.length info.Value.labels then i else -1
  | Bools, Value.VBool b -> Bool.to_int b
  | (Ints _ | Enum _ | Bools), _ ->
    Errors.type_error "a %s value against a value list of %s"
      (Value.type_name v)
      (match dom with
      | Ints { lo; hi } -> Printf.sprintf "%d..%d" lo hi
      | Enum info -> info.Value.enum_name
      | Bools -> "boolean")

let value_at dom i =
  match dom with
  | Ints { lo; _ } -> Value.VInt (lo + i)
  | Enum info -> Value.VEnum (info, i)
  | Bools -> Value.VBool (i = 1)

(* [Bytes.get]/[Bytes.set] check the index against the bitset. *)
let bit bits i = Char.code (Bytes.get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit bits i =
  let b = i lsr 3 in
  Bytes.set bits b
    (Char.unsafe_chr (Char.code (Bytes.get bits b) lor (1 lsl (i land 7))))

(* Fold the indexes of the set bits in ascending order, skipping zero
   bytes whole. *)
let fold_bits f bits init =
  let acc = ref init in
  for b = 0 to Bytes.length bits - 1 do
    let byte = Char.code (Bytes.get bits b) in
    if byte <> 0 then
      for j = 0 to 7 do
        if byte land (1 lsl j) <> 0 then acc := f ((b lsl 3) + j) !acc
      done
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Adding *)

let update_bounds t v =
  (match t.vmin with
  | None -> t.vmin <- Some v
  | Some m -> if Value.compare v m < 0 then t.vmin <- Some v);
  match t.vmax with
  | None -> t.vmax <- Some v
  | Some m -> if Value.compare v m > 0 then t.vmax <- Some v

(* One hash probe: [replace] leaves a present value in place, so the
   table grows exactly when [v] is new. *)
let add_hashed t h v =
  Vtable.replace h v ();
  let n = Vtable.length h in
  if n <> t.distinct then begin
    t.distinct <- n;
    t.stale <- true
  end

(* No test of the bit first: a bitset's count is derived when asked,
   so an add is a store, whichever way the data falls. *)
let add_bit t bits i =
  set_bit bits i;
  t.stale <- true

let add t v =
  match t.set with
  | Bits (dom, bits) ->
    let i = index_of dom v in
    if i < 0 then begin
      (* Outside the declared domain (an intermediate's unchecked
         insert): the hash set takes over. *)
      let h = Vtable.create 64 in
      fold_bits (fun i () -> Vtable.replace h (value_at dom i) ()) bits ();
      t.set <- Hashed h;
      t.distinct <- Vtable.length h;
      add_hashed t h v
    end
    else add_bit t bits i
  | Hashed h -> add_hashed t h v
  | Reduced -> (
    update_bounds t v;
    match t.first with
    | None -> t.first <- Some v
    | Some f -> if not (Value.equal f v) then t.distinct2 <- true)

(* ------------------------------------------------------------------ *)
(* Questions *)

(* A Full list's size, min and max, derived once after the adds that
   changed it.  The bitset walk allocates nothing per bit. *)
let derive t =
  (match t.set with
  | Bits (dom, bits) ->
    let lo = ref (-1) and hi = ref (-1) and n = ref 0 in
    for b = 0 to Bytes.length bits - 1 do
      let byte = Char.code (Bytes.get bits b) in
      if byte <> 0 then
        for j = 0 to 7 do
          if byte land (1 lsl j) <> 0 then begin
            if !lo < 0 then lo := (b lsl 3) + j;
            hi := (b lsl 3) + j;
            incr n
          end
        done
    done;
    let at i = if i < 0 then None else Some (value_at dom i) in
    t.distinct <- !n;
    t.vmin <- at !lo;
    t.vmax <- at !hi
  | Hashed h ->
    t.vmin <- None;
    t.vmax <- None;
    Vtable.iter (fun v () -> update_bounds t v) h
  | Reduced -> ());
  t.stale <- false

let min_value t =
  if t.stale then derive t;
  t.vmin

let max_value t =
  if t.stale then derive t;
  t.vmax

(* A Full list's distinct values. *)
let count t =
  if t.stale then derive t;
  t.distinct

let is_empty t =
  match t.set with
  | Bits _ | Hashed _ -> count t = 0
  | Reduced -> Option.is_none t.first

let mem t v =
  match t.set with
  | Bits (dom, bits) ->
    let i = index_of dom v in
    i >= 0 && bit bits i
  | Hashed h -> Vtable.mem h v
  | Reduced ->
    Errors.type_error "membership query on a %s value list"
      (match t.storage with Bounds -> "bounds-only" | _ -> "at-most-one")

let distinct_count t =
  match t.set with
  | Bits _ | Hashed _ -> Some (count t)
  | Reduced -> None

(* Number of component values physically retained — the paper's storage
   claim for the Bounds and At_most_one policies. *)
let stored_size t =
  match t.storage with
  | Full -> count t
  | Bounds -> (match t.vmin, t.vmax with
    | None, None -> 0
    | Some a, Some b -> if Value.equal a b then 1 else 2
    | Some _, None | None, Some _ -> 1)
  | At_most_one -> (match t.first with None -> 0 | Some _ -> 1)

let to_sorted_list t =
  match t.set with
  | Bits (dom, bits) -> List.rev (fold_bits (fun i acc -> value_at dom i :: acc) bits [])
  | Hashed h ->
    Vtable.fold (fun v () acc -> v :: acc) h [] |> List.sort Value.compare
  | Reduced -> Errors.type_error "enumeration of a reduced value list"

(* Saw two distinct values, and the one value of a list that did not:
   a Full list knows both from its set. *)
let distinct2 t =
  match t.set with Bits _ | Hashed _ -> count t >= 2 | Reduced -> t.distinct2

let first t =
  match t.set with
  | Bits _ | Hashed _ -> Option.get (min_value t)
  | Reduced -> Option.get t.first

(* Top level rather than local closures over [v] and [t]: a derived
   predicate asks once per element its build scans. *)
let against_min t op v = Value.apply op v (Option.get (min_value t))
let against_max t op v = Value.apply op v (Option.get (max_value t))

(* [quant_holds ~quant op v t] decides (Q w IN list) (v op w).
   SOME over an empty list is false, ALL over an empty list is true.
   The reduced storage policies decide exactly the operator/quantifier
   combinations the paper assigns to them; asking them anything else is
   a programming error in the planner and raises. *)
let quant_holds ~quant op v t =
  if is_empty t then (match quant with Q_some -> false | Q_all -> true)
  else
    match quant, op with
    (* v < SOME w  <=>  v < max;  v < ALL w  <=>  v < min;  dually for >. *)
    | Q_some, Value.Lt -> against_max t Value.Lt v
    | Q_some, Value.Le -> against_max t Value.Le v
    | Q_some, Value.Gt -> against_min t Value.Gt v
    | Q_some, Value.Ge -> against_min t Value.Ge v
    | Q_all, Value.Lt -> against_min t Value.Lt v
    | Q_all, Value.Le -> against_min t Value.Le v
    | Q_all, Value.Gt -> against_max t Value.Gt v
    | Q_all, Value.Ge -> against_max t Value.Ge v
    | Q_some, Value.Eq -> (
      match t.storage with
      | Full -> mem t v
      | At_most_one ->
        (* Not one of the paper's reduced cases, but decidable when only
           one distinct value was seen. *)
        if t.distinct2 then
          Errors.type_error "SOME-= on an at-most-one value list with 2+ values"
        else Value.equal v (Option.get t.first)
      | Bounds ->
        (* v = SOME w <=> min <= v <= max is wrong in general; decidable
           only if min = max. *)
        if Value.equal (Option.get t.vmin) (Option.get t.vmax) then
          Value.equal v (Option.get t.vmin)
        else Errors.type_error "SOME-= on a bounds-only value list")
    | Q_all, Value.Ne -> (
      match t.storage with
      | Full -> not (mem t v)
      | At_most_one ->
        if t.distinct2 then
          Errors.type_error "ALL-<> on an at-most-one value list with 2+ values"
        else not (Value.equal v (Option.get t.first))
      | Bounds ->
        if Value.equal (Option.get t.vmin) (Option.get t.vmax) then
          not (Value.equal v (Option.get t.vmin))
        else Errors.type_error "ALL-<> on a bounds-only value list")
    (* The paper's at-most-one cases. *)
    | Q_all, Value.Eq ->
      (* v = ALL w: false as soon as two distinct values exist. *)
      (not (distinct2 t)) && Value.equal v (first t)
    | Q_some, Value.Ne ->
      (* v <> SOME w: true as soon as two distinct values exist. *)
      distinct2 t || not (Value.equal v (first t))

(* [mem t tuple.(pos)] for a Full list: a value of a bitset's domain is
   one range check and one bit. *)
let member t ~pos =
  let slow (tuple : Tuple.t) = mem t tuple.(pos) in
  match t.set with
  | Bits (Ints { lo; hi }, bits) -> (
    fun tuple ->
      match tuple.(pos) with
      | Value.VInt n -> lo <= n && n <= hi && bit bits (n - lo)
      | _ -> slow tuple)
  | Bits (Enum info, bits) -> (
    let n_labels = Array.length info.Value.labels in
    fun tuple ->
      match tuple.(pos) with
      | Value.VEnum (info', i) when info' == info ->
        i >= 0 && i < n_labels && bit bits i
      | _ -> slow tuple)
  | Bits (Bools, bits) -> (
    fun tuple ->
      match tuple.(pos) with
      | Value.VBool b -> bit bits (Bool.to_int b)
      | _ -> slow tuple)
  | Hashed h -> fun tuple -> Vtable.mem h tuple.(pos)
  | Reduced -> slow

(* [quant_holds ~quant op tuple.(pos) t], fixed once for a list whose
   build has finished: emptiness, the storage policy's case and the
   bound or value compared against are decided here, so a tuple pays
   one test — a range check and a bit for a bitset's [=], one int
   comparison against a bound.  A case [quant_holds] refuses raises on
   every tuple, as there. *)
let tester ~quant op t ~pos : Tuple.t -> bool =
  let against v op = Value.component_test op pos v in
  let refuse what = fun _ -> Errors.type_error "%s" what in
  if is_empty t then (match quant with Q_some -> fun _ -> false | Q_all -> fun _ -> true)
  else
    match quant, op with
    | Q_some, (Value.Lt | Value.Le) | Q_all, (Value.Gt | Value.Ge) ->
      against (Option.get (max_value t)) op
    | Q_some, (Value.Gt | Value.Ge) | Q_all, (Value.Lt | Value.Le) ->
      against (Option.get (min_value t)) op
    | Q_some, Value.Eq -> (
      match t.storage with
      | Full -> member t ~pos
      | At_most_one ->
        if t.distinct2 then
          refuse "SOME-= on an at-most-one value list with 2+ values"
        else against (Option.get t.first) Value.Eq
      | Bounds ->
        if Value.equal (Option.get t.vmin) (Option.get t.vmax) then
          against (Option.get t.vmin) Value.Eq
        else refuse "SOME-= on a bounds-only value list")
    | Q_all, Value.Ne -> (
      match t.storage with
      | Full ->
        let m = member t ~pos in
        fun tuple -> not (m tuple)
      | At_most_one ->
        if t.distinct2 then
          refuse "ALL-<> on an at-most-one value list with 2+ values"
        else against (Option.get t.first) Value.Ne
      | Bounds ->
        if Value.equal (Option.get t.vmin) (Option.get t.vmax) then
          against (Option.get t.vmin) Value.Ne
        else refuse "ALL-<> on a bounds-only value list")
    | Q_all, Value.Eq ->
      if distinct2 t then fun _ -> false else against (first t) Value.Eq
    | Q_some, Value.Ne ->
      if distinct2 t then fun _ -> true else against (first t) Value.Ne

(* [add t tuple.(pos)], fixed once per build: a value of a bitset's
   domain sets its bit directly, and any other value goes to [add] —
   which may move the list to the hash set, after which the
   [t.set == set] test sends every value through [add].

   With [~if_member:(l, p)] a tuple adds only when its component [p] is
   a member of the Full list [l] — the list of an existential whose
   range elements must themselves have a match in a nested existential
   (the chain of strategy 4).  When both lists are subrange bitsets
   and both components fall in their subranges, the member bit is
   or-ed into the add without a branch on it: which tuples qualify is
   data, and a mispredicted branch per tuple costs more than the
   test. *)
let adder ?if_member t ~pos =
  let slow (tuple : Tuple.t) = add t tuple.(pos) in
  let add =
    match t.set with
    | Bits (Ints { lo; hi }, bits) as set -> (
      fun tuple ->
        match tuple.(pos) with
        | Value.VInt n when lo <= n && n <= hi && t.set == set ->
          add_bit t bits (n - lo)
        | _ -> slow tuple)
    | Bits (Enum info, bits) as set -> (
      let n_labels = Array.length info.Value.labels in
      fun tuple ->
        match tuple.(pos) with
        | Value.VEnum (info', i)
          when info' == info && i >= 0 && i < n_labels && t.set == set ->
          add_bit t bits i
        | _ -> slow tuple)
    | Bits (Bools, bits) as set -> (
      fun tuple ->
        match tuple.(pos) with
        | Value.VBool b when t.set == set -> add_bit t bits (Bool.to_int b)
        | _ -> slow tuple)
    | Hashed h -> fun tuple -> add_hashed t h tuple.(pos)
    | Reduced -> slow
  in
  match if_member with
  | None -> add
  | Some (l, p) -> (
    let is_member = member l ~pos:p in
    let guarded tuple = if is_member tuple then add tuple in
    match l.set, t.set with
    | Bits (Ints { lo = llo; hi = lhi }, lbits), (Bits (Ints { lo; hi }, bits) as set)
      -> (
      fun tuple ->
        match tuple.(p), tuple.(pos) with
        | Value.VInt k, Value.VInt n
          when llo <= k && k <= lhi && lo <= n && n <= hi && t.set == set ->
          let k = k - llo and i = n - lo in
          let b = i lsr 3 in
          let kept = (Char.code (Bytes.get lbits (k lsr 3)) lsr (k land 7)) land 1 in
          Bytes.set bits b
            (Char.unsafe_chr
               (Char.code (Bytes.get bits b) lor (kept lsl (i land 7))));
          t.stale <- true
        | _ -> guarded tuple)
    | _ -> guarded)

let of_column ?storage rel name =
  let schema = Relation.schema rel in
  let pos = Schema.index_of schema name in
  let t =
    create ?storage ~domain:(Schema.type_at schema pos)
      ~rows:(Relation.cardinality rel) ()
  in
  Relation.scan (adder t ~pos) rel;
  t
