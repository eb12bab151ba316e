(* Indexes: relations associating component values with references
   (paper Section 3.2 and Figure 2, e.g. ind_t_cnr : RELATION <tcnr,tref>).

   The collection phase's per-query structure: created empty, filled
   while a scan passes over the source relation — possibly restricted
   to the elements satisfying the build's predicates, making it
   *partial* ("a (partial) INDEX on one relation involved in the join
   term is created") — probed by the indirect-join builds, and
   discarded with the query.  Its references are the elements' ordinals
   in the execution's tuple table ({!Batch.ordinals}).  Persistent
   indexes are {!Secondary_index}.

   Nothing here bumps a metric: the build that fills an index counts
   its entries once, from {!entry_count}, and a build that probes one
   counts its probes locally and reports them when it finishes. *)

type t = {
  source : string;
  on : string list;
  positions : int array;
  tbl : int list Value_key.table;
  mutable entry_count : int;
}

let entry_count t = t.entry_count

let create rel ~on =
  let schema = Relation.schema rel in
  let positions =
    Array.of_list (List.map (Schema.index_of schema) on)
  in
  {
    source = Relation.name rel;
    on;
    positions;
    tbl = Value_key.create 64;
    entry_count = 0;
  }

let add t tuple ord =
  Value_key.add_multi t.tbl (Tuple.values_at t.positions tuple) ord;
  t.entry_count <- t.entry_count + 1

(* Probes against a built index are read-only: only [add] writes to it,
   while its build runs. *)
let iter_matching t op probe f =
  Value_key.iter_matching ~source:t.source t.tbl op probe f

let exists_matching t op probe =
  Value_key.exists_matching ~source:t.source t.tbl op probe

(* Materialize the index as a relation <components..., ref>, the form
   Figure 2 declares. *)
let to_relation ?(name = "") t pool schema_of_source =
  let attr_of n =
    Schema.attr n (Schema.type_of schema_of_source n)
  in
  let attrs = List.map attr_of t.on @ [ Schema.attr "ref" (Vtype.reference t.source) ] in
  let rel = Relation.create ~name (Schema.make attrs ~key:[]) in
  Value_key.Table.iter
    (fun key ords ->
      List.iter
        (fun o ->
          let r =
            Reference.make ~target:t.source
              ~key:(Tuple.key_of schema_of_source (Batch.tuple_at pool o))
          in
          Relation.insert rel (Tuple.of_list (key @ [ Value.VRef r ])))
        ords)
    t.tbl;
  rel
