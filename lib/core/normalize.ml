(* Logic normalization: negation normal form, prenex form, disjunctive
   normal form (paper Section 2: "the PASCAL/R compiler transforms each
   selection expression into prenex normal form with a matrix in
   disjunctive normal form").

   Prenexing moves quantifiers over AND and OR; by Lemma 1 this is only
   an equivalence when all range relations are non-empty, so callers must
   adapt empty ranges first (see {!Standard_form.adapt_query}). *)

open Relalg
open Calculus

(* Constant folding of ground atoms. *)
let fold_atom a =
  match a.lhs, a.rhs with
  | O_const x, O_const y ->
    if Value.apply a.op x y then F_true else F_false
  | (O_attr _ | O_const _ | O_param _), _ -> F_atom a

(* Negation normal form.  NOT is pushed to the atoms and absorbed into
   the comparison operator (NOT (x < y) = x >= y); NOT SOME becomes ALL
   NOT and vice versa — these De Morgan duals hold unconditionally in the
   many-sorted calculus. *)
let rec nnf = function
  | F_true -> F_true
  | F_false -> F_false
  | F_atom a -> fold_atom a
  | F_and (a, b) -> f_and (nnf a) (nnf b)
  | F_or (a, b) -> f_or (nnf a) (nnf b)
  | F_some (v, r, f) -> (
    match nnf f with
    | F_false -> F_false
    | f' -> F_some (v, r, f'))
  | F_all (v, r, f) -> (
    match nnf f with
    | F_true -> F_true
    | f' -> F_all (v, r, f'))
  | F_not f -> nnf_neg f

and nnf_neg = function
  | F_true -> F_false
  | F_false -> F_true
  | F_atom a -> fold_atom { a with op = Value.negate_comparison a.op }
  | F_not f -> nnf f
  | F_and (a, b) -> f_or (nnf_neg a) (nnf_neg b)
  | F_or (a, b) -> f_and (nnf_neg a) (nnf_neg b)
  | F_some (v, r, f) -> (
    match nnf_neg f with
    | F_true -> F_true
    | f' -> F_all (v, r, f'))
  | F_all (v, r, f) -> (
    match nnf_neg f with
    | F_false -> F_false
    | f' -> F_some (v, r, f'))

type quant = Q_some | Q_all

let quant_to_string = function Q_some -> "SOME" | Q_all -> "ALL"

type prefix_entry = { q : quant; v : var; range : range }

(* Prenex transformation of an NNF formula with pairwise-distinct bound
   variables.  Quantifiers are emitted in textual (left-to-right) order,
   matching the paper's Example 2.2.  Valid for non-empty ranges. *)
let rec prenex = function
  | (F_true | F_false | F_atom _) as f -> ([], f)
  | F_and (a, b) ->
    let pa, ma = prenex a and pb, mb = prenex b in
    (pa @ pb, f_and ma mb)
  | F_or (a, b) ->
    let pa, ma = prenex a and pb, mb = prenex b in
    (pa @ pb, f_or ma mb)
  | F_some (v, r, f) ->
    let p, m = prenex f in
    ({ q = Q_some; v; range = r } :: p, m)
  | F_all (v, r, f) ->
    let p, m = prenex f in
    ({ q = Q_all; v; range = r } :: p, m)
  | F_not _ -> invalid_arg "Normalize.prenex: formula not in NNF"

(* A conjunction of join terms, and a matrix in disjunctive normal form.
   The empty conjunction is TRUE; the empty disjunction is FALSE. *)
type conjunction = atom list
type dnf = conjunction list

let conj_mem atom conj = List.exists (equal_atom_mirrored atom) conj

let conj_add atom conj = if conj_mem atom conj then conj else atom :: conj

(* A conjunction containing an atom and its complement is contradictory. *)
let contradictory conj =
  List.exists
    (fun a ->
      conj_mem { a with op = Value.negate_comparison a.op } conj)
    conj

let conj_equal c1 c2 =
  List.length c1 = List.length c2
  && List.for_all (fun a -> conj_mem a c2) c1

(* A conjunction subsumes another if it is a subset of it: then the
   larger one is redundant in a disjunction. *)
let conj_subsumes smaller larger =
  List.for_all (fun a -> conj_mem a larger) smaller

let add_disjunct dnf conj =
  if List.exists (fun c -> conj_subsumes c conj) dnf then dnf
  else conj :: List.filter (fun c -> not (conj_subsumes conj c)) dnf

(* DNF of a quantifier-free NNF matrix. *)
let dnf_of_matrix matrix =
  let rec go = function
    | F_true -> [ [] ]
    | F_false -> []
    | F_atom a -> [ [ a ] ]
    | F_or (x, y) -> go x @ go y
    | F_and (x, y) ->
      let dx = go x and dy = go y in
      List.concat_map
        (fun cx ->
          List.filter_map
            (fun cy ->
              let merged = List.fold_left (fun acc a -> conj_add a acc) cx cy in
              if contradictory merged then None else Some merged)
            dy)
        dx
    | F_not _ | F_some _ | F_all _ ->
      invalid_arg "Normalize.dnf_of_matrix: not a quantifier-free NNF matrix"
  in
  let raw = go matrix in
  let deduped = List.fold_left add_disjunct [] raw in
  if List.exists (fun c -> c = []) deduped then [ [] ] else List.rev deduped

let conj_vars (conj : conjunction) =
  List.fold_left
    (fun acc a -> Var_set.union acc (atom_vars a))
    Var_set.empty conj

let dnf_vars (d : dnf) =
  List.fold_left (fun acc c -> Var_set.union acc (conj_vars c)) Var_set.empty d

let formula_of_conj (conj : conjunction) =
  Calculus.conj (List.map (fun a -> F_atom a) conj)

let formula_of_dnf (d : dnf) = disj (List.map formula_of_conj d)

(* --- Query shape ----------------------------------------------------

   One walk renames every variable to a reserved positional name
   ('%'-prefixed, which the lexer cannot produce): free variables %f0,
   %f1, ... in declaration order, bound variables %b0, ... and
   restriction variables %r0, ... in traversal order.  It also lifts
   every constant compared against an attribute into a placeholder
   %c0, %c1, ... in traversal order; a constant compared against a
   constant stays, for {!nnf} to fold.  Queries differing only in
   variable spelling and those literals have one shape, whose digest
   keys a plan cache.  The lifted query keeps the caller's variable
   names, so its plan prints as the caller wrote it once ground. *)

let shape (q : query) =
  let frees = ref 0 and bound = ref 0 and restr = ref 0 in
  let literals = ref Var_map.empty in
  let fresh kind n =
    incr n;
    Printf.sprintf "%%%c%d" kind (!n - 1)
  in
  let lift = function
    | O_const c ->
      let p = Printf.sprintf "%%c%d" (Var_map.cardinal !literals) in
      literals := Var_map.add p c !literals;
      O_param p
    | (O_attr _ | O_param _) as o -> o
  in
  let rename env = function
    | O_attr (v, a) when Var_map.mem v env -> O_attr (Var_map.find v env, a)
    | (O_attr _ | O_const _ | O_param _) as o -> o
  in
  (* Each walker returns the lifted form and the shape. *)
  let atom env a =
    let a =
      match a.lhs, a.rhs with
      | O_attr _, O_const _ | O_const _, O_attr _ ->
        { a with lhs = lift a.lhs; rhs = lift a.rhs }
      | (O_attr _ | O_const _ | O_param _), _ -> a
    in
    (F_atom a, F_atom { a with lhs = rename env a.lhs; rhs = rename env a.rhs })
  in
  let rec range r =
    match r.restriction with
    | None -> (r, r)
    | Some (rv, f) ->
      (* Restriction formulas mention only their own variable
         (wellformedness), so a fresh one-entry environment suffices. *)
      let rv' = fresh 'r' restr in
      let f, f' = formula (Var_map.singleton rv rv') f in
      ({ r with restriction = Some (rv, f) }, { r with restriction = Some (rv', f') })
  and formula env = function
    | (F_true | F_false) as f -> (f, f)
    | F_atom a -> atom env a
    | F_not f ->
      let f, f' = formula env f in
      (F_not f, F_not f')
    | F_and (a, b) -> both env (fun a b -> F_and (a, b)) a b
    | F_or (a, b) -> both env (fun a b -> F_or (a, b)) a b
    | F_some (v, r, f) -> quantified env (fun v r f -> F_some (v, r, f)) v r f
    | F_all (v, r, f) -> quantified env (fun v r f -> F_all (v, r, f)) v r f
  and both env mk a b =
    let a, a' = formula env a in
    let b, b' = formula env b in
    (mk a b, mk a' b')
  and quantified env mk v r f =
    let r, r' = range r in
    let v' = fresh 'b' bound in
    let f, f' = formula (Var_map.add v v' env) f in
    (mk v r f, mk v' r' f')
  in
  let env, free =
    List.fold_left_map
      (fun env (v, r) ->
        let v' = fresh 'f' frees in
        let r, r' = range r in
        (Var_map.add v v' env, ((v, r), (v', r'))))
      Var_map.empty q.free
  in
  let free, free' = List.split free in
  let body, body' = formula env q.body in
  let name v = Option.value (Var_map.find_opt v env) ~default:v in
  let select = List.map (fun (v, a) -> (name v, a)) q.select in
  ({ q with free; body }, { free = free'; select; body = body' }, !literals)

let pp_conjunction ppf conj =
  match conj with
  | [] -> Fmt.string ppf "true"
  | _ -> Fmt.pf ppf "@[<hov>%a@]" (Fmt.list ~sep:(Fmt.any " AND@ ") pp_atom) conj

let pp_dnf ppf = function
  | [] -> Fmt.string ppf "false"
  | d ->
    Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:(Fmt.any "@,OR ") pp_conjunction) d
