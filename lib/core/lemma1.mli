(** Lemma 1 (paper Section 2): distribution of AND/OR over range-coupled
    quantifiers, with the empty-relation exceptions of rules 2 and 3. *)

open Relalg
open Calculus

type rule =
  | Rule1  (** [A AND SOME rec IN rel (B) = SOME rec IN rel (A AND B)] — always *)
  | Rule2  (** [A OR SOME rec IN rel (B)] — [A] if [rel] empty *)
  | Rule3  (** [A AND ALL rec IN rel (B)] — [A] if [rel] empty *)
  | Rule4  (** [A OR ALL rec IN rel (B) = ALL rec IN rel (A OR B)] — always *)

val all_rules : rule list
val rule_to_string : rule -> string

val match_lhs : rule -> formula -> (formula * var * range * formula) option
(** Match a rule's left-hand side (either operand order); checks the
    side condition that [rec] does not occur in [A]. *)

val rewrite : Database.t -> rule -> formula -> formula option
(** The correct rewrite, consulting the database for emptiness. *)

val rewrite_assuming_nonempty : rule -> formula -> formula option
(** The compile-time (non-empty assumption) rewrite — wrong on empty
    relations for rules 2 and 3, as the test suite demonstrates. *)
