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
                   with <> ("at most one value need to be stored"). *)

type storage = Full | Bounds | At_most_one

type quantifier = Q_some | Q_all

type t = {
  storage : storage;
  values : unit Value_key.Vtable.t;  (* used by Full only *)
  mutable vmin : Value.t option;
  mutable vmax : Value.t option;
  mutable first : Value.t option; (* used by At_most_one *)
  mutable distinct2 : bool;       (* saw >= 2 distinct values *)
  mutable added : int;            (* total insertions (with duplicates) *)
  mutable distinct : int;         (* distinct values seen (Full only) *)
}

let create ?(storage = Full) () =
  {
    storage;
    values = Value_key.Vtable.create 64;
    vmin = None;
    vmax = None;
    first = None;
    distinct2 = false;
    added = 0;
    distinct = 0;
  }

let storage t = t.storage

let update_bounds t v =
  (match t.vmin with
  | None -> t.vmin <- Some v
  | Some m -> if Value.compare v m < 0 then t.vmin <- Some v);
  match t.vmax with
  | None -> t.vmax <- Some v
  | Some m -> if Value.compare v m > 0 then t.vmax <- Some v

let add t v =
  t.added <- t.added + 1;
  update_bounds t v;
  (match t.first with
  | None -> t.first <- Some v
  | Some f -> if not (Value.equal f v) then t.distinct2 <- true);
  match t.storage with
  | Full ->
    if not (Value_key.Vtable.mem t.values v) then begin
      Value_key.Vtable.replace t.values v ();
      t.distinct <- t.distinct + 1
    end
  | Bounds | At_most_one -> ()

let of_column ?storage ?filter rel name =
  let t = create ?storage () in
  let keep = Option.value filter ~default:(fun _ -> true) in
  let pos = Schema.index_of (Relation.schema rel) name in
  Relation.scan (fun tuple -> if keep tuple then add t (Tuple.get tuple pos)) rel;
  t

let is_empty t = t.added = 0

let mem t v =
  match t.storage with
  | Full -> Value_key.Vtable.mem t.values v
  | Bounds | At_most_one ->
    Errors.type_error "membership query on a %s value list"
      (match t.storage with Bounds -> "bounds-only" | _ -> "at-most-one")

let distinct_count t =
  match t.storage with
  | Full -> Some t.distinct
  | Bounds | At_most_one -> None

(* Number of component values physically retained — the paper's storage
   claim for the Bounds and At_most_one policies. *)
let stored_size t =
  match t.storage with
  | Full -> t.distinct
  | Bounds -> (match t.vmin, t.vmax with
    | None, None -> 0
    | Some a, Some b -> if Value.equal a b then 1 else 2
    | Some _, None | None, Some _ -> 1)
  | At_most_one -> (match t.first with None -> 0 | Some _ -> 1)

let min_value t = t.vmin
let max_value t = t.vmax

let to_sorted_list t =
  match t.storage with
  | Full ->
    Value_key.Vtable.fold (fun v () acc -> v :: acc) t.values []
    |> List.sort Value.compare
  | Bounds | At_most_one ->
    Errors.type_error "enumeration of a reduced value list"

let exists_value p t = List.exists p (to_sorted_list t)
let for_all_values p t = List.for_all p (to_sorted_list t)

(* Top level rather than local closures over [v] and [t]: a derived
   predicate asks once per element its build scans. *)
let against_min t op v = Value.apply op v (Option.get t.vmin)
let against_max t op v = Value.apply op v (Option.get t.vmax)

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
      (not t.distinct2)
      && (match t.storage with
         | Full | At_most_one | Bounds -> Value.equal v (Option.get t.first))
    | Q_some, Value.Ne ->
      (* v <> SOME w: true as soon as two distinct values exist. *)
      t.distinct2
      || not (Value.equal v (Option.get t.first))

let pp ppf t =
  match t.storage with
  | Full ->
    Fmt.pf ppf "{%a}" (Fmt.list ~sep:Fmt.comma Value.pp) (to_sorted_list t)
  | Bounds ->
    Fmt.pf ppf "{bounds %a..%a}" (Fmt.option Value.pp) t.vmin
      (Fmt.option Value.pp) t.vmax
  | At_most_one ->
    Fmt.pf ppf "{first %a%s}" (Fmt.option Value.pp) t.first
      (if t.distinct2 then ", 2+ distinct" else "")
