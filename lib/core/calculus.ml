(* The many-sorted first-order predicate calculus of PASCAL/R selection
   expressions (paper Section 2).

   Atomic formulae are JOIN TERMS: monadic (one variable, e.g.
   [e.estatus = professor]) or dyadic (two variables, e.g.
   [e.enr = t.tenr]), over the comparison operators = <> < <= > >=.
   Element variables range over relations via RANGE EXPRESSIONS and are
   free (EACH), existentially (SOME) or universally (ALL) quantified.

   Ranges are either database relations or — after strategy 3 — EXTENDED
   RANGE EXPRESSIONS [EACH r IN rel: S(r)] restricting the relation by a
   monadic formula over the range's own variable (Section 4.3). *)

open Relalg

type var = string

module Var_set = Set.Make (String)
module Var_map = Map.Make (String)

type range = {
  range_rel : string;  (* database relation name *)
  restriction : (var * formula) option;
      (* [EACH v IN rel: S(v)]; free vars of S are at most {v} *)
}

and operand =
  | O_attr of var * string  (* v.component *)
  | O_const of Value.t
  | O_param of string
      (* $name placeholder, bound to a constant at execution time — the
         paper's rel[keyval] selected-variable usage, where one embedded
         selection expression serves a family of key values *)

and atom = { lhs : operand; op : Value.comparison; rhs : operand }

and formula =
  | F_true
  | F_false
  | F_atom of atom
  | F_not of formula
  | F_and of formula * formula
  | F_or of formula * formula
  | F_some of var * range * formula
  | F_all of var * range * formula

(* A selection [<v1.a1, ...> OF EACH v1 IN r1, ... : body]. *)
type query = {
  free : (var * range) list;
  select : (var * string) list;
  body : formula;
}

(* Constructors *)

let base rel = { range_rel = rel; restriction = None }

let restricted rel v f =
  match f with
  | F_true -> base rel
  | _ -> { range_rel = rel; restriction = Some (v, f) }

let attr v a = O_attr (v, a)
let const c = O_const c
let cint n = O_const (Value.int n)
let cstr s = O_const (Value.str s)
let param name = O_param name

let compare_atoms_operand a b =
  match a, b with
  | O_attr (v1, a1), O_attr (v2, a2) ->
    let c = String.compare v1 v2 in
    if c <> 0 then c else String.compare a1 a2
  | O_attr _, (O_param _ | O_const _) -> -1
  | O_param _, O_attr _ -> 1
  | O_param p1, O_param p2 -> String.compare p1 p2
  | O_param _, O_const _ -> -1
  | O_const _, (O_attr _ | O_param _) -> 1
  | O_const c1, O_const c2 -> Value.compare c1 c2

let mk_atom lhs op rhs = F_atom { lhs; op; rhs }
let eq l r = mk_atom l Value.Eq r
let ne l r = mk_atom l Value.Ne r
let lt l r = mk_atom l Value.Lt r
let le l r = mk_atom l Value.Le r
let gt l r = mk_atom l Value.Gt r
let ge l r = mk_atom l Value.Ge r

(* Smart connectives performing constant propagation; they keep formulas
   produced by transformations tidy. *)
let f_and a b =
  match a, b with
  | F_true, f | f, F_true -> f
  | F_false, _ | _, F_false -> F_false
  | _ -> F_and (a, b)

let f_or a b =
  match a, b with
  | F_false, f | f, F_false -> f
  | F_true, _ | _, F_true -> F_true
  | _ -> F_or (a, b)

let f_not = function
  | F_true -> F_false
  | F_false -> F_true
  | F_not f -> f
  | f -> F_not f

let f_some v r f = F_some (v, r, f)
let f_all v r f = F_all (v, r, f)

let conj = function [] -> F_true | f :: fs -> List.fold_left f_and f fs
let disj = function [] -> F_false | f :: fs -> List.fold_left f_or f fs

(* Analysis *)

let operand_var = function
  | O_attr (v, _) -> Some v
  | O_const _ | O_param _ -> None

let atom_vars a =
  let add acc = function
    | O_attr (v, _) -> Var_set.add v acc
    | O_const _ | O_param _ -> acc
  in
  add (add Var_set.empty a.lhs) a.rhs

(* A monadic join term mentions exactly one variable; a dyadic one two
   (paper Section 2). *)
let is_monadic a = Var_set.cardinal (atom_vars a) = 1
let is_dyadic a = Var_set.cardinal (atom_vars a) = 2

let rec free_vars = function
  | F_true | F_false -> Var_set.empty
  | F_atom a -> atom_vars a
  | F_not f -> free_vars f
  | F_and (a, b) | F_or (a, b) -> Var_set.union (free_vars a) (free_vars b)
  | F_some (v, _, f) | F_all (v, _, f) -> Var_set.remove v (free_vars f)

let rec bound_vars = function
  | F_true | F_false | F_atom _ -> Var_set.empty
  | F_not f -> bound_vars f
  | F_and (a, b) | F_or (a, b) -> Var_set.union (bound_vars a) (bound_vars b)
  | F_some (v, _, f) | F_all (v, _, f) -> Var_set.add v (bound_vars f)

let rec all_atoms = function
  | F_true | F_false -> []
  | F_atom a -> [ a ]
  | F_not f -> all_atoms f
  | F_and (a, b) | F_or (a, b) -> all_atoms a @ all_atoms b
  | F_some (_, _, f) | F_all (_, _, f) -> all_atoms f

(* Renaming of a (free) variable throughout a formula — the alpha-
   conversion used to make bound variables distinct before prenexing. *)
let rename_operand old fresh = function
  | O_attr (v, a) when String.equal v old -> O_attr (fresh, a)
  | o -> o

let rename_atom old fresh a =
  { a with lhs = rename_operand old fresh a.lhs; rhs = rename_operand old fresh a.rhs }

let rec rename_free old fresh = function
  | (F_true | F_false) as f -> f
  | F_atom a -> F_atom (rename_atom old fresh a)
  | F_not f -> F_not (rename_free old fresh f)
  | F_and (a, b) -> F_and (rename_free old fresh a, rename_free old fresh b)
  | F_or (a, b) -> F_or (rename_free old fresh a, rename_free old fresh b)
  | F_some (v, r, f) ->
    if String.equal v old then F_some (v, r, f)
    else F_some (v, r, rename_free old fresh f)
  | F_all (v, r, f) ->
    if String.equal v old then F_all (v, r, f)
    else F_all (v, r, rename_free old fresh f)

(* Fresh-name generation: v, v', v'', ... avoiding a reserved set. *)
let fresh_var reserved v =
  let rec try_name candidate =
    if Var_set.mem candidate reserved then try_name (candidate ^ "'")
    else candidate
  in
  try_name v

(* Rename bound variables so that every quantifier binds a distinct name,
   also distinct from every name in [reserved] (typically the free
   variables of the query).  Precondition of the prenex transformation. *)
let distinct_bound_vars reserved formula =
  let used = ref (Var_set.union reserved (free_vars formula)) in
  let rec go = function
    | (F_true | F_false | F_atom _) as f -> f
    | F_not f -> F_not (go f)
    | F_and (a, b) ->
      let a' = go a in
      F_and (a', go b)
    | F_or (a, b) ->
      let a' = go a in
      F_or (a', go b)
    | F_some (v, r, f) ->
      let v', f' = freshen v f in
      F_some (v', r, go f')
    | F_all (v, r, f) ->
      let v', f' = freshen v f in
      F_all (v', r, go f')
  and freshen v f =
    if Var_set.mem v !used then begin
      let v' = fresh_var !used v in
      used := Var_set.add v' !used;
      (v', rename_free v v' f)
    end
    else begin
      used := Var_set.add v !used;
      (v, f)
    end
  in
  go formula

(* Parameter placeholders *)

let operand_params acc = function
  | O_param p -> Var_set.add p acc
  | O_attr _ | O_const _ -> acc

let atom_params acc a = operand_params (operand_params acc a.lhs) a.rhs

let rec formula_params acc = function
  | F_true | F_false -> acc
  | F_atom a -> atom_params acc a
  | F_not f -> formula_params acc f
  | F_and (a, b) | F_or (a, b) -> formula_params (formula_params acc a) b
  | F_some (_, r, f) | F_all (_, r, f) ->
    formula_params (range_params acc r) f

and range_params acc r =
  match r.restriction with
  | None -> acc
  | Some (_, f) -> formula_params acc f

let query_params q =
  let acc =
    List.fold_left (fun acc (_, r) -> range_params acc r) Var_set.empty q.free
  in
  Var_set.elements (formula_params acc q.body)

let subst_operand bindings = function
  | O_param p as o -> (
    match Var_map.find_opt p bindings with
    | Some v -> O_const v
    | None -> o)
  | o -> o

let subst_atom bindings a =
  { a with lhs = subst_operand bindings a.lhs; rhs = subst_operand bindings a.rhs }

let rec subst_formula bindings = function
  | (F_true | F_false) as f -> f
  | F_atom a -> F_atom (subst_atom bindings a)
  | F_not f -> F_not (subst_formula bindings f)
  | F_and (a, b) -> F_and (subst_formula bindings a, subst_formula bindings b)
  | F_or (a, b) -> F_or (subst_formula bindings a, subst_formula bindings b)
  | F_some (v, r, f) ->
    F_some (v, subst_range bindings r, subst_formula bindings f)
  | F_all (v, r, f) ->
    F_all (v, subst_range bindings r, subst_formula bindings f)

and subst_range bindings r =
  match r.restriction with
  | None -> r
  | Some (v, f) -> { r with restriction = Some (v, subst_formula bindings f) }

let subst_query bindings q =
  {
    free = List.map (fun (v, r) -> (v, subst_range bindings r)) q.free;
    select = q.select;
    body = subst_formula bindings q.body;
  }

(* Structural digest.

   Serializes a query unambiguously (every string is length-prefixed, so
   no concrete-syntax collision can alias two distinct queries) and
   hashes with MD5.  The digest of a query's shape — see
   {!Normalize.shape} — is the plan cache's query key. *)

let ser_string buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let ser_operand buf = function
  | O_attr (v, a) ->
    Buffer.add_char buf 'a';
    ser_string buf v;
    ser_string buf a
  | O_const c ->
    Buffer.add_char buf 'c';
    ser_string buf (Value.to_string c)
  | O_param p ->
    Buffer.add_char buf 'p';
    ser_string buf p

let ser_atom buf a =
  ser_operand buf a.lhs;
  ser_string buf (Value.comparison_to_string a.op);
  ser_operand buf a.rhs

let rec ser_formula buf = function
  | F_true -> Buffer.add_char buf 'T'
  | F_false -> Buffer.add_char buf 'F'
  | F_atom a ->
    Buffer.add_char buf 'A';
    ser_atom buf a
  | F_not f ->
    Buffer.add_char buf '!';
    ser_formula buf f
  | F_and (a, b) ->
    Buffer.add_char buf '&';
    ser_formula buf a;
    ser_formula buf b
  | F_or (a, b) ->
    Buffer.add_char buf '|';
    ser_formula buf a;
    ser_formula buf b
  | F_some (v, r, f) ->
    Buffer.add_char buf 'S';
    ser_string buf v;
    ser_range buf r;
    ser_formula buf f
  | F_all (v, r, f) ->
    Buffer.add_char buf 'L';
    ser_string buf v;
    ser_range buf r;
    ser_formula buf f

and ser_range buf r =
  ser_string buf r.range_rel;
  match r.restriction with
  | None -> Buffer.add_char buf '_'
  | Some (v, f) ->
    Buffer.add_char buf 'R';
    ser_string buf v;
    ser_formula buf f

let digest_query q =
  let buf = Buffer.create 256 in
  List.iter
    (fun (v, r) ->
      Buffer.add_char buf 'E';
      ser_string buf v;
      ser_range buf r)
    q.free;
  List.iter
    (fun (v, a) ->
      Buffer.add_char buf '<';
      ser_string buf v;
      ser_string buf a)
    q.select;
  ser_formula buf q.body;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Structural equality *)

let equal_operand a b = compare_atoms_operand a b = 0

let equal_atom a b =
  equal_operand a.lhs b.lhs && a.op = b.op && equal_operand a.rhs b.rhs

(* Atoms equal up to mirroring (x op y ~ y flip-op x). *)
let equal_atom_mirrored a b =
  equal_atom a b
  || equal_atom a { lhs = b.rhs; op = Value.flip_comparison b.op; rhs = b.lhs }

let rec equal_range a b =
  String.equal a.range_rel b.range_rel
  &&
  match a.restriction, b.restriction with
  | None, None -> true
  | Some (v1, f1), Some (v2, f2) ->
    String.equal v1 v2 && equal_formula f1 f2
  | None, Some _ | Some _, None -> false

and equal_formula a b =
  match a, b with
  | F_true, F_true | F_false, F_false -> true
  | F_atom x, F_atom y -> equal_atom x y
  | F_not x, F_not y -> equal_formula x y
  | F_and (x1, x2), F_and (y1, y2) | F_or (x1, x2), F_or (y1, y2) ->
    equal_formula x1 y1 && equal_formula x2 y2
  | F_some (v1, r1, f1), F_some (v2, r2, f2)
  | F_all (v1, r1, f1), F_all (v2, r2, f2) ->
    String.equal v1 v2 && equal_range r1 r2 && equal_formula f1 f2
  | ( ( F_true | F_false | F_atom _ | F_not _ | F_and _ | F_or _ | F_some _
      | F_all _ ),
      _ ) ->
    false

(* Pretty-printing in the paper's concrete syntax. *)

let pp_operand ppf = function
  | O_attr (v, a) -> Fmt.pf ppf "%s.%s" v a
  | O_const c -> Value.pp ppf c
  | O_param p -> Fmt.pf ppf "$%s" p

let pp_atom ppf a =
  Fmt.pf ppf "(%a %s %a)" pp_operand a.lhs
    (Value.comparison_to_string a.op)
    pp_operand a.rhs

let rec pp_range ppf r =
  match r.restriction with
  | None -> Fmt.string ppf r.range_rel
  | Some (v, f) ->
    Fmt.pf ppf "[EACH %s IN %s: %a]" v r.range_rel pp_formula f

and pp_formula ppf = function
  | F_true -> Fmt.string ppf "true"
  | F_false -> Fmt.string ppf "false"
  | F_atom a -> pp_atom ppf a
  | F_not f -> Fmt.pf ppf "NOT %a" pp_paren f
  | F_and (a, b) -> Fmt.pf ppf "%a AND %a" pp_paren a pp_paren b
  | F_or (a, b) -> Fmt.pf ppf "%a OR %a" pp_paren a pp_paren b
  | F_some (v, r, f) ->
    Fmt.pf ppf "SOME %s IN %a %a" v pp_range r pp_paren f
  | F_all (v, r, f) -> Fmt.pf ppf "ALL %s IN %a %a" v pp_range r pp_paren f

and pp_paren ppf f =
  match f with
  | F_true | F_false | F_atom _ | F_not _ -> pp_formula ppf f
  | F_and _ | F_or _ | F_some _ | F_all _ -> Fmt.pf ppf "(%a)" pp_formula f

let pp_query ppf q =
  let pp_sel ppf (v, a) = Fmt.pf ppf "%s.%s" v a in
  let pp_free ppf (v, r) = Fmt.pf ppf "EACH %s IN %a" v pp_range r in
  Fmt.pf ppf "@[<hv2>[<%a> OF@ %a:@ %a]@]"
    (Fmt.list ~sep:Fmt.comma pp_sel)
    q.select
    (Fmt.list ~sep:Fmt.comma pp_free)
    q.free pp_formula q.body

let formula_to_string f = Fmt.str "%a" pp_formula f
let query_to_string q = Fmt.str "%a" pp_query q
