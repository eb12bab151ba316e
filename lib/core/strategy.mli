(** Strategy toggles for the four query transformation / evaluation
    strategies of paper Section 4. *)

type t = {
  parallel_scan : bool;
      (** S1 (Section 4.1): evaluate all join terms over a relation in
          one scan — each range relation is read no more than once. *)
  monadic_restrict : bool;
      (** S2 (Section 4.2): monadic terms restrict indirect joins while
          the relation is read; their single lists are not built. *)
  range_extension : bool;
      (** S3 (Section 4.3): move monadic terms into extended range
          expressions. *)
  cnf_extension : bool;
      (** The paper's Section 4.3 future-work refinement: range
          extensions in conjunctive normal form — a pure-monadic
          conjunction of an ALL variable is absorbed negated (a CNF
          clause), and SOME/free ranges shrink by the disjunction of
          their conjunctions' monadic terms.  Implies
          [range_extension]. *)
  quantifier_push : bool;
      (** S4 (Section 4.4): evaluate splittable quantifiers in the
          collection phase through value lists. *)
}

val palermo : t
(** The phase-structured baseline of Section 3.3: no strategies. *)

val s1 : t
val s12 : t
val s123 : t
val s1234 : t
val s123c : t
val full_cnf : t

val full : t
(** All four strategies ([s1234]). *)

val all_presets : (string * t) list
(** The cumulative presets compared by the benchmark harness. *)

val to_string : t -> string
val pp : t Fmt.t
