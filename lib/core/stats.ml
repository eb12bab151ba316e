(* Relation statistics for the cost model: cardinality, and per
   attribute the number of distinct values plus min/max.  Gathered in a
   single scan per relation and cached per database. *)

open Relalg

type attr_stats = {
  a_distinct : int;
  a_min : Value.t option;
  a_max : Value.t option;
}

type rel_stats = {
  r_cardinality : int;
  r_attrs : (string * attr_stats) list;
}

let collect_relation rel =
  let schema = Relation.schema rel in
  let n = Schema.arity schema in
  let seen = Array.init n (fun _ -> Value_key.create 64) in
  let mins = Array.make n None and maxs = Array.make n None in
  Relation.scan
    (fun t ->
      for i = 0 to n - 1 do
        let v = Tuple.get t i in
        Value_key.Table.replace seen.(i) [ v ] ();
        (match mins.(i) with
        | None -> mins.(i) <- Some v
        | Some m -> if Value.compare v m < 0 then mins.(i) <- Some v);
        match maxs.(i) with
        | None -> maxs.(i) <- Some v
        | Some m -> if Value.compare v m > 0 then maxs.(i) <- Some v
      done)
    rel;
  {
    r_cardinality = Relation.cardinality rel;
    r_attrs =
      List.init n (fun i ->
          ( Schema.name_at schema i,
            {
              a_distinct = Value_key.Table.length seen.(i);
              a_min = mins.(i);
              a_max = maxs.(i);
            } ));
  }

type t = { per_rel : (string, rel_stats) Hashtbl.t }

let collect db =
  Obs.Trace.with_span "stats_collect" @@ fun () ->
  let per_rel = Hashtbl.create 8 in
  List.iter
    (fun rel -> Hashtbl.replace per_rel (Relation.name rel) (collect_relation rel))
    (Database.relations db);
  { per_rel }

let relation t name =
  match Hashtbl.find_opt t.per_rel name with
  | Some s -> s
  | None -> raise (Errors.Unknown_relation name)

let cardinality t name = (relation t name).r_cardinality

let attr t name attr_name =
  match List.assoc_opt attr_name (relation t name).r_attrs with
  | Some a -> a
  | None -> raise (Errors.Unknown_attribute attr_name)

(* Fraction of the ordered domain [min, max] below a value — linear
   interpolation for integers and enum ordinals, a neutral guess
   elsewhere. *)
let position_fraction v lo hi =
  match v, lo, hi with
  | Value.VInt x, Value.VInt l, Value.VInt h ->
    if h <= l then 0.5 else float_of_int (x - l) /. float_of_int (h - l)
  | Value.VEnum (_, x), Value.VEnum (_, l), Value.VEnum (_, h) ->
    if h <= l then 0.5 else float_of_int (x - l) /. float_of_int (h - l)
  | (Value.VInt _ | Value.VStr _ | Value.VBool _ | Value.VEnum _ | Value.VRef _), _, _
    ->
    0.5

let clamp01 x = Float.max 0.01 (Float.min 0.99 x)

(* Selectivity of a monadic comparison [attr op const]. *)
let monadic_selectivity t rel_name attr_name op (c : Value.t) =
  let a = attr t rel_name attr_name in
  let d = max 1 a.a_distinct in
  match op with
  | Value.Eq -> 1.0 /. float_of_int d
  | Value.Ne -> 1.0 -. (1.0 /. float_of_int d)
  | Value.Lt | Value.Le | Value.Gt | Value.Ge -> (
    match a.a_min, a.a_max with
    | Some lo, Some hi ->
      let f = position_fraction c lo hi in
      clamp01 (match op with
        | Value.Lt | Value.Le -> f
        | Value.Gt | Value.Ge -> 1.0 -. f
        | Value.Eq | Value.Ne -> 0.5)
    | None, _ | _, None -> 0.33)

(* Selectivity of an equality dyadic term between two attributes
   (System-R style: 1 / max of the distinct counts). *)
let join_selectivity t rel1 attr1 rel2 attr2 =
  let d1 = max 1 (attr t rel1 attr1).a_distinct in
  let d2 = max 1 (attr t rel2 attr2).a_distinct in
  1.0 /. float_of_int (max d1 d2)

let pp ppf t =
  Hashtbl.iter
    (fun name rs ->
      Fmt.pf ppf "%s: %d elements@." name rs.r_cardinality;
      List.iter
        (fun (a, s) -> Fmt.pf ppf "  %s: %d distinct@." a s.a_distinct)
        rs.r_attrs)
    t.per_rel

(* Per-column distinct counts of an intermediate reference relation —
   the combination phase's join ordering runs this over the collection
   phase's structures. *)
let column_distincts (c : Batch.columns) =
  List.mapi
    (fun i name ->
      let seen = Hashtbl.create 64 in
      for r = 0 to c.Batch.c_rows - 1 do
        Hashtbl.replace seen (Batch.cell c.Batch.c_cols.(i) r) ()
      done;
      (name, Hashtbl.length seen))
    (Schema.names c.Batch.c_schema)
