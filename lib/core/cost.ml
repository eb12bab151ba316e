(* Cardinality and cost estimation over plans.

   The model estimates, per conjunction, the size of the n-tuple
   reference relation the combination phase would build: the product of
   each variable's restricted cardinality, discounted by the join
   selectivities of the conjunction's dyadic terms.  Collection cost is
   the number of elements scanned; combination cost is the sum of the
   estimated n-tuple cardinalities — the "combinatorial growth inherent
   in the combination of intermediate results" that the paper's
   strategies attack. *)

open Relalg
open Calculus

type estimate = {
  e_conj_sizes : float list;  (* estimated n-tuple cardinality per conjunction *)
  e_combination : float;      (* their sum: combination-phase volume *)
  e_collection : float;       (* elements scanned by the collection phase *)
}

(* Estimated cardinality of a variable's range after its restriction. *)
let rec restricted_cardinality stats (range : range) =
  let base = float_of_int (Stats.cardinality stats range.range_rel) in
  match range.restriction with
  | None -> base
  | Some (_, f) -> base *. formula_selectivity stats range.range_rel f

(* Selectivity of a monadic formula over one relation. *)
and formula_selectivity stats rel = function
  | F_true -> 1.0
  | F_false -> 0.0
  | F_not f -> 1.0 -. formula_selectivity stats rel f
  | F_and (a, b) -> formula_selectivity stats rel a *. formula_selectivity stats rel b
  | F_or (a, b) ->
    let sa = formula_selectivity stats rel a
    and sb = formula_selectivity stats rel b in
    sa +. sb -. (sa *. sb)
  | F_atom a -> atom_selectivity stats rel a
  | F_some _ | F_all _ -> 0.5

and atom_selectivity stats rel (a : atom) =
  match a.lhs, a.rhs with
  | O_attr (_, at), O_const c | O_const c, O_attr (_, at) ->
    Stats.monadic_selectivity stats rel at
      (match a.lhs with O_attr _ -> a.op | _ -> Value.flip_comparison a.op)
      c
  | O_attr _, O_attr _ -> 0.3 (* same-variable attribute comparison *)
  | O_const x, O_const y -> if Value.apply a.op x y then 1.0 else 0.0
  (* A parameter is an unknown constant: use the operator's default. *)
  | O_param _, _ | _, O_param _ -> (
    match a.op with Value.Eq -> 0.1 | Value.Ne -> 0.9 | _ -> 0.4)

(* Selectivity of a dyadic atom, given the ranges of its variables. *)
let dyadic_selectivity stats ranges (a : atom) =
  match a.lhs, a.rhs with
  | O_attr (v1, a1), O_attr (v2, a2) when not (String.equal v1 v2) -> (
    let r1 = List.assoc_opt v1 ranges and r2 = List.assoc_opt v2 ranges in
    match r1, r2, a.op with
    | Some r1, Some r2, Value.Eq ->
      Stats.join_selectivity stats r1.range_rel a1 r2.range_rel a2
    | Some _, Some _, Value.Ne -> 0.9
    | Some _, Some _, (Value.Lt | Value.Le | Value.Gt | Value.Ge) -> 0.4
    | (None, _, _ | _, None, _) -> 0.3)
  | (O_attr _ | O_const _ | O_param _), _ -> 0.5

(* Estimated n-tuple cardinality of one conjunction over the full
   variable order (conjunction variables restricted by its monadic
   atoms; missing variables padded with their full restricted range). *)
let conj_cardinality stats (plan : Plan.t) (conj : Plan.conj) =
  let order = Plan.variable_order plan in
  let ranges =
    List.filter_map (fun v -> Option.map (fun r -> (v, r)) (Plan.range_of plan v)) order
  in
  let var_size v =
    let range = List.assoc v ranges in
    let base = restricted_cardinality stats range in
    let monadic = Plan.monadic_over v conj.Plan.atoms in
    let sel =
      List.fold_left
        (fun acc a -> acc *. atom_selectivity stats range.range_rel a)
        1.0 monadic
    in
    (* Derived predicates behave like extra monadic filters; give them a
       neutral selectivity. *)
    let n_derived =
      List.length (List.filter (fun (vm, _) -> String.equal vm v) conj.Plan.derived)
    in
    Float.max 1.0 (base *. sel *. (0.5 ** float_of_int n_derived))
  in
  let product =
    List.fold_left (fun acc v -> acc *. var_size v) 1.0 order
  in
  let dyadics = List.filter is_dyadic conj.Plan.atoms in
  List.fold_left
    (fun acc a -> acc *. dyadic_selectivity stats ranges a)
    product dyadics

let estimate stats (plan : Plan.t) =
  let conj_sizes = List.map (conj_cardinality stats plan) plan.Plan.conjs in
  let order = Plan.variable_order plan in
  let collection =
    List.fold_left
      (fun acc v ->
        match Plan.range_of plan v with
        | Some r -> acc +. float_of_int (Stats.cardinality stats r.range_rel)
        | None -> acc)
      0.0 order
  in
  {
    e_conj_sizes = conj_sizes;
    e_combination = List.fold_left ( +. ) 0.0 conj_sizes;
    e_collection = collection;
  }

let pp ppf e =
  Fmt.pf ppf "collection %.0f elements, combination %.0f n-tuples (%a)"
    e.e_collection e.e_combination
    (Fmt.list ~sep:Fmt.comma (fun ppf f -> Fmt.pf ppf "%.0f" f))
    e.e_conj_sizes

(* --- Access-path policy ---------------------------------------------

   An equality restriction always prefers a secondary-index probe
   (exact bucket, no scan); an order restriction uses a sorted index's
   range scan only while the exact matching fraction stays at or below
   [range_scan_max_fraction] — past that, walking the ordered map plus
   re-checking residual predicates loses to the single heap scan the
   grouped collection round performs anyway. *)

let range_scan_max_fraction = 0.5

(* --- Join ordering over materialized inputs ------------------------

   The combination phase joins the reference relations of one
   conjunction.  Unlike the textual estimates above, here the TRUE
   cardinalities and per-column distinct counts are available (the
   inputs are materialized), so a greedy System-R style ordering is
   cheap and accurate: start from the smallest input and repeatedly
   join in the input with the least estimated result size, where

     est(acc ⋈ C) = |acc| · |C| · Π_{shared column s} 1 / max(d_acc(s), d_C(s)).

   Inputs sharing no column with the accumulated prefix are estimated
   as Cartesian products, which the formula naturally penalizes. *)

type join_input = {
  ji_card : int;
  ji_cols : string list;
  ji_distinct : (string * int) list;  (* distinct count per column *)
}

let greedy_join_order (inputs : join_input list) =
  match inputs with
  | [] -> []
  | [ _ ] -> [ 0 ]
  | _ ->
    let arr = Array.of_list inputs in
    let n = Array.length arr in
    let used = Array.make n false in
    (* Distinct-count view of the accumulated intermediate: shared
       columns keep the smaller distinct count, everything is capped by
       the running cardinality estimate. *)
    let acc_distinct : (string, float) Hashtbl.t = Hashtbl.create 16 in
    let absorb est inp =
      List.iter
        (fun (c, d) ->
          let d = float_of_int (max 1 d) in
          let d =
            match Hashtbl.find_opt acc_distinct c with
            | Some prev -> Float.min prev d
            | None -> d
          in
          Hashtbl.replace acc_distinct c (Float.min d est))
        inp.ji_distinct
    in
    let start = ref 0 in
    for i = 1 to n - 1 do
      if arr.(i).ji_card < arr.(!start).ji_card then start := i
    done;
    let acc_card = ref (float_of_int (max 1 arr.(!start).ji_card)) in
    used.(!start) <- true;
    absorb !acc_card arr.(!start);
    let order = ref [ !start ] in
    for _ = 2 to n do
      let best = ref (-1) and best_est = ref infinity in
      for i = 0 to n - 1 do
        if not used.(i) then begin
          let est =
            List.fold_left
              (fun est (c, d) ->
                match Hashtbl.find_opt acc_distinct c with
                | Some da -> est /. Float.max da (float_of_int (max 1 d))
                | None -> est)
              (!acc_card *. float_of_int (max 1 arr.(i).ji_card))
              arr.(i).ji_distinct
          in
          if est < !best_est then begin
            best := i;
            best_est := est
          end
        end
      done;
      let i = !best in
      used.(i) <- true;
      acc_card := Float.max 1.0 !best_est;
      absorb !acc_card arr.(i);
      order := i :: !order
    done;
    List.rev !order
