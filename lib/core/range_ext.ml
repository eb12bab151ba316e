(* Strategy 3: EXTENDED RANGE EXPRESSIONS (paper Section 4.3).

   Monadic join terms are moved out of the matrix into the range
   expressions of their variables, using

     SOME rec IN rel (S(rec) AND WFF) = SOME rec IN [EACH r IN rel: S(r)] (WFF)
     ALL rec IN rel (NOT S(rec) OR WFF) = ALL rec IN [EACH r IN rel: S(r)] (WFF)

   with free variables handled like existentially quantified ones.  On
   the standard form this reads:

   - free/SOME variable v: a monadic atom over v occurring in EVERY
     conjunction that mentions v (for a free variable: in every
     conjunction of the matrix) moves into v's range restriction;
   - ALL variable v: a conjunction consisting of a SINGLE monadic atom A
     over v is absorbed as the restriction NOT A (several such
     conjunctions combine into a conjunction of negated atoms — "the
     current system version supports only conjunctions of join terms as
     range expression extensions").

   Emptiness of the new extended range is checked against the live
   database, because the surrounding prenex form is only valid for
   non-empty ranges (Lemma 1): an empty extended SOME-range deletes the
   variable's conjunctions instead; an empty extended ALL-range makes
   the whole quantified part true.  A restriction that mentions a
   $param is extended all the same: Standard_form.range_is_empty
   records it as assumed non-empty, and every execution asks it again
   under its bindings, re-planning the ground query when it is empty. *)

open Relalg
open Calculus

type state = {
  mutable free : (var * range) list;
  mutable prefix : Normalize.prefix_entry list;
  mutable matrix : Normalize.dnf;
  mutable finished : bool;  (* matrix collapsed to TRUE *)
}

(* Extend [range] by the monadic formula [f] over variable name [v]. *)
let extend_range (range : range) v f =
  match range.restriction with
  | None -> restricted range.range_rel v f
  | Some (rv, existing) ->
    let existing = if String.equal rv v then existing else rename_free rv v existing in
    restricted range.range_rel v (f_and existing f)

let conj_mentions v conj = Var_set.mem v (Normalize.conj_vars conj)

(* Remove atoms (mirrored-equal) from a conjunction. *)
let remove_atoms atoms conj =
  List.filter (fun a -> not (List.exists (equal_atom_mirrored a) atoms)) conj

(* Prune prefix entries whose variable no longer occurs in the matrix;
   their (non-empty) ranges make them vacuous. *)
let prune_vacuous st =
  let used = Normalize.dnf_vars st.matrix in
  st.prefix <-
    List.filter (fun e -> Var_set.mem e.Normalize.v used) st.prefix

(* One extraction attempt for a free or existential variable.  Returns
   true if the state changed. *)
let extract_existential db st v range ~is_free ~set_range ~drop_var =
  let relevant_conjs =
    if is_free then st.matrix
    else List.filter (conj_mentions v) st.matrix
  in
  if relevant_conjs = [] then false
  else begin
    let monadic_common =
      match relevant_conjs with
      | [] -> []
      | first :: rest ->
        List.filter
          (fun a ->
            is_monadic a
            && Var_set.mem v (atom_vars a)
            && List.for_all (fun conj -> Normalize.conj_mem a conj) rest)
          first
    in
    match monadic_common with
    | [] -> false
    | atoms ->
      let s_formula = conj (List.map (fun a -> F_atom a) atoms) in
      let new_range = extend_range range v s_formula in
      (if (not is_free) && Standard_form.range_is_empty db new_range
       then begin
         (* SOME v over an empty extended range: the variable's
            conjunctions are unsatisfiable; the rest of the matrix
            survives (Lemma 1, rule 2 applied in reverse). *)
         st.matrix <-
           List.filter (fun c -> not (conj_mentions v c)) st.matrix;
         drop_var ();
         prune_vacuous st
       end
       else begin
         st.matrix <-
           List.map
             (fun conj ->
               if conj_mentions v conj || is_free then
                 remove_atoms atoms conj
               else conj)
             st.matrix;
         set_range new_range;
         prune_vacuous st
       end);
      true
  end

(* One extraction attempt for a universally quantified variable.  With
   [cnf] the paper's future-work refinement applies: any conjunction
   consisting solely of monadic terms over v is absorbed (its negation
   is a disjunctive clause; several such conjunctions form a restriction
   in conjunctive normal form).  Without [cnf] only single-atom
   conjunctions qualify — "the current system version supports only
   conjunctions of join terms". *)
let extract_universal ~cnf db st (entry : Normalize.prefix_entry) =
  let v = entry.Normalize.v in
  let pure_monadic_over_v conj =
    conj <> []
    && List.for_all
         (fun a -> is_monadic a && Var_set.mem v (atom_vars a))
         conj
  in
  let singleton_conjs =
    List.filter
      (fun conj ->
        match conj with
        | [ a ] -> is_monadic a && Var_set.mem v (atom_vars a)
        | [] | _ :: _ -> cnf && pure_monadic_over_v conj)
      st.matrix
  in
  if singleton_conjs = [] then false
  else begin
    let negated =
      List.map
        (fun c ->
          disj
            (List.map
               (fun a -> F_atom { a with op = Value.negate_comparison a.op })
               c))
        singleton_conjs
    in
    let s_formula = conj negated in
    let new_range = extend_range entry.Normalize.range v s_formula in
    st.matrix <-
      List.filter
        (fun c -> not (List.exists (Normalize.conj_equal c) singleton_conjs))
        st.matrix;
    (if Standard_form.range_is_empty db new_range then begin
       (* ALL v over an empty extended range: the quantified part is
          identically true; only the free ranges still select. *)
       st.matrix <- [ [] ];
       st.prefix <- [];
       st.finished <- true
     end
     else begin
       st.prefix <-
         List.map
           (fun (e : Normalize.prefix_entry) ->
             if String.equal e.Normalize.v v then
               { e with Normalize.range = new_range }
             else e)
           st.prefix;
       prune_vacuous st
     end);
    true
  end

(* CNF clause extension for a free/SOME variable (applied once, after
   the main fixpoint): if every relevant conjunction carries at least
   one monadic term over v, the range shrinks by the disjunction of
   those terms' conjunctions.  The matrix keeps its atoms — only the
   collection-phase structures over v get smaller. *)
let extend_clause_existential db st v range ~is_free ~set_range ~drop_var =
  let relevant_conjs =
    if is_free then st.matrix else List.filter (conj_mentions v) st.matrix
  in
  let monadic_of conj =
    List.filter (fun a -> is_monadic a && Var_set.mem v (atom_vars a)) conj
  in
  if
    relevant_conjs = []
    || List.exists (fun c -> monadic_of c = []) relevant_conjs
  then false
  else begin
    let clause =
      disj
        (List.map
           (fun c -> conj (List.map (fun a -> F_atom a) (monadic_of c)))
           relevant_conjs)
    in
    let new_range = extend_range range v clause in
    (if (not is_free) && Standard_form.range_is_empty db new_range
     then begin
       st.matrix <- List.filter (fun c -> not (conj_mentions v c)) st.matrix;
       drop_var ();
       prune_vacuous st
     end
     else set_range new_range);
    true
  end

let set_free st v r =
  st.free <-
    List.map (fun (v', r') -> if String.equal v' v then (v, r) else (v', r')) st.free

let set_prefix st v r =
  st.prefix <-
    List.map
      (fun (e : Normalize.prefix_entry) ->
        if String.equal e.Normalize.v v then { e with Normalize.range = r } else e)
      st.prefix

let drop_prefix st v () =
  st.prefix <-
    List.filter
      (fun (e : Normalize.prefix_entry) -> not (String.equal e.Normalize.v v))
      st.prefix

(* A prefix variable's current entry, if it is still quantified. *)
let current st (entry : Normalize.prefix_entry) =
  List.find_opt
    (fun (e : Normalize.prefix_entry) -> String.equal e.Normalize.v entry.Normalize.v)
    st.prefix

let apply ?(cnf = false) db (sf : Standard_form.t) : Standard_form.t =
  let st =
    {
      free = sf.Standard_form.free;
      prefix = sf.Standard_form.prefix;
      matrix = sf.Standard_form.matrix;
      finished = false;
    }
  in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && (not st.finished) && !rounds < 10 do
    changed := false;
    incr rounds;
    List.iter
      (fun (v, range) ->
        if
          (not st.finished)
          && extract_existential db st v range ~is_free:true
               ~set_range:(set_free st v) ~drop_var:ignore
        then changed := true)
      st.free;
    List.iter
      (fun entry ->
        match current st entry with
        | Some e when not st.finished ->
          let v = e.Normalize.v in
          if
            match e.Normalize.q with
            | Normalize.Q_some ->
              extract_existential db st v e.Normalize.range ~is_free:false
                ~set_range:(set_prefix st v) ~drop_var:(drop_prefix st v)
            | Normalize.Q_all -> extract_universal ~cnf db st e
          then changed := true
        | Some _ | None -> ())
      st.prefix
  done;
  if cnf && not st.finished then begin
    (* One clause-extension pass per free/SOME variable. *)
    List.iter
      (fun (v, range) ->
        ignore
          (extend_clause_existential db st v range ~is_free:true
             ~set_range:(set_free st v) ~drop_var:ignore))
      st.free;
    List.iter
      (fun entry ->
        match current st entry with
        | Some e when e.Normalize.q = Normalize.Q_some ->
          let v = e.Normalize.v in
          ignore
            (extend_clause_existential db st v e.Normalize.range ~is_free:false
               ~set_range:(set_prefix st v) ~drop_var:(drop_prefix st v))
        | Some _ | None -> ())
      st.prefix
  end;
  {
    Standard_form.free = st.free;
    select = sf.Standard_form.select;
    prefix = st.prefix;
    matrix = st.matrix;
  }
