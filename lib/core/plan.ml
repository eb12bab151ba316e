(* Executable query plans.

   A plan refines the standard form: the DNF matrix becomes a list of
   conjunction plans whose atoms can be augmented (by strategy 4) with
   DERIVED PREDICATES — quantifiers over a single variable that have been
   moved into the matrix for evaluation in the collection phase via value
   lists (paper Section 4.4).  A derived predicate on variable vm
   encapsulates [Q vn IN range (monadic(vn) AND nested(vn) AND
   vm.outer_attr op vn.inner_attr)]. *)

open Relalg
open Calculus

type pushed = {
  p_quant : Normalize.quant;
  p_var : var;  (* the pushed (eliminated) variable vn *)
  p_range : range;
  p_op : Value.comparison;  (* vm.outer_attr op vn.inner_attr *)
  p_outer_attr : string;
  p_inner_attr : string;
  p_monadic : atom list;  (* monadic join terms over vn from the conjunction *)
  p_nested : pushed list;  (* derived predicates over vn from earlier pushes *)
}

type conj = {
  atoms : Normalize.conjunction;
  derived : (var * pushed) list;
      (* derived monadic predicates, keyed by the outer variable vm *)
}

type t = {
  free : (var * range) list;
  select : (var * string) list;
  prefix : Normalize.prefix_entry list;
  conjs : conj list;
}

let of_standard_form (sf : Standard_form.t) =
  {
    free = sf.Standard_form.free;
    select = sf.Standard_form.select;
    prefix = sf.Standard_form.prefix;
    conjs =
      List.map (fun atoms -> { atoms; derived = [] }) sf.Standard_form.matrix;
  }

(* Substitute bound $params across free ranges, prefix ranges, matrix
   atoms and derived predicates: the collection, combination and
   construction phases only ever see ground plans. *)
let rec ground_pushed b p =
  {
    p with
    p_range = subst_range b p.p_range;
    p_monadic = List.map (subst_atom b) p.p_monadic;
    p_nested = List.map (ground_pushed b) p.p_nested;
  }

let ground b p =
  {
    p with
    free = List.map (fun (v, r) -> (v, subst_range b r)) p.free;
    prefix =
      List.map
        (fun e -> { e with Normalize.range = subst_range b e.Normalize.range })
        p.prefix;
    conjs =
      List.map
        (fun c ->
          {
            atoms = List.map (subst_atom b) c.atoms;
            derived = List.map (fun (v, d) -> (v, ground_pushed b d)) c.derived;
          })
        p.conjs;
  }

(* Variables used by a conjunction: variables of its atoms plus the outer
   variables of its derived predicates. *)
let conj_vars c =
  List.fold_left
    (fun acc (vm, _) -> Var_set.add vm acc)
    (Normalize.conj_vars c.atoms)
    c.derived

let plan_vars p =
  List.fold_left (fun acc c -> Var_set.union acc (conj_vars c)) Var_set.empty
    p.conjs

(* Canonical column order of the combination phase: free variables first,
   then the remaining prefix. *)
let variable_order p =
  List.map fst p.free @ List.map (fun e -> e.Normalize.v) p.prefix

let range_of p v =
  match List.assoc_opt v p.free with
  | Some r -> Some r
  | None ->
    List.find_map
      (fun e ->
        if String.equal e.Normalize.v v then Some e.Normalize.range else None)
      p.prefix

(* Monadic atoms of a conjunction over a given variable, and the dyadic
   atoms touching it. *)
let monadic_over v atoms =
  List.filter
    (fun a -> is_monadic a && Var_set.mem v (atom_vars a))
    atoms

let dyadic_over v atoms =
  List.filter (fun a -> is_dyadic a && Var_set.mem v (atom_vars a)) atoms

(* Stable textual identities, used as memo-table keys by the collection
   phase so that identical work (same term, same restrictions) is done
   once — "avoid repeated access to identical data" (Section 4). *)
let atom_id a =
  (* Orient dyadic atoms canonically so mirrored twins share a key. *)
  let a =
    if compare_atoms_operand a.lhs a.rhs <= 0 then a
    else { lhs = a.rhs; op = Value.flip_comparison a.op; rhs = a.lhs }
  in
  Fmt.str "%a" pp_atom a

let atoms_id atoms =
  String.concat "&" (List.sort String.compare (List.map atom_id atoms))

let rec pushed_id p =
  Fmt.str "%s:%s:%a:%s:%s:%s:[%s]:[%s]"
    (Normalize.quant_to_string p.p_quant)
    p.p_var pp_range p.p_range
    (Value.comparison_to_string p.p_op)
    p.p_outer_attr p.p_inner_attr (atoms_id p.p_monadic)
    (String.concat ";" (List.map pushed_id p.p_nested))

let derived_id (vm, p) = vm ^ "<-" ^ pushed_id p

let pp_pushed ppf p =
  let rec go ppf p =
    Fmt.pf ppf "%s %s IN %a (%a"
      (Normalize.quant_to_string p.p_quant)
      p.p_var pp_range p.p_range
      (Fmt.list ~sep:(Fmt.any " AND ") pp_atom)
      (p.p_monadic
      @ [
          {
            lhs = O_attr ("<outer>", p.p_outer_attr);
            op = p.p_op;
            rhs = O_attr (p.p_var, p.p_inner_attr);
          };
        ]);
    List.iter (fun n -> Fmt.pf ppf " AND %a" go n) p.p_nested;
    Fmt.pf ppf ")"
  in
  go ppf p

let pp_conj ppf c =
  Normalize.pp_conjunction ppf c.atoms;
  List.iter
    (fun (vm, p) -> Fmt.pf ppf "@ AND [on %s: %a]" vm pp_pushed p)
    c.derived

let pp ppf p =
  let pp_free ppf (v, r) = Fmt.pf ppf "EACH %s IN %a" v pp_range r in
  let pp_prefix ppf e =
    Fmt.pf ppf "%s %s IN %a"
      (Normalize.quant_to_string e.Normalize.q)
      e.Normalize.v pp_range e.Normalize.range
  in
  Fmt.pf ppf "@[<v2>plan:@ free: %a@ prefix: %a@ %a@]"
    (Fmt.list ~sep:Fmt.comma pp_free)
    p.free
    (Fmt.list ~sep:Fmt.sp pp_prefix)
    p.prefix
    (Fmt.list ~sep:(Fmt.any "@,OR ") pp_conj)
    p.conjs
