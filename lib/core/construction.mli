(** The construction phase (paper Section 3.3): dereference the
    surviving reference n-tuples and project on the component
    selection. *)

open Relalg

val run :
  ?name:string -> Database.t -> Plan.t -> Batch.pool -> Batch.columns -> Relation.t
(** [run db plan pool refs] reads each free variable's column of [refs]
    — ordinals of [pool]'s tuple table — back into its elements by
    array index and projects the plan's component selection; the result
    uses {!Wellformed.result_schema}. *)
