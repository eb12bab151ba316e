(* Relation schemas: an ordered list of named, typed attributes together
   with a key (a subset of the attributes, declared in angular brackets
   in PASCAL/R: RELATION <enr> OF RECORD ... END). *)

type attr = { attr_name : string; attr_type : Vtype.t }

type t = {
  attrs : attr array;
  key : int array;  (* positions of the key attributes, in declared order *)
}

let attr name ty = { attr_name = name; attr_type = ty }

let arity s = Array.length s.attrs
let attrs s = Array.to_list s.attrs
let attr_at s i = s.attrs.(i)
let key_positions s = Array.copy s.key
let key_length s = Array.length s.key
let key_position s i = s.key.(i)

(* Top level, so a lookup allocates no closure: collection and
   construction resolve names against schemas on their set-up paths. *)
let rec find_attr attrs name i =
  if i >= Array.length attrs then raise (Errors.Unknown_attribute name)
  else if String.equal attrs.(i).attr_name name then i
  else find_attr attrs name (i + 1)

let index_of s name = find_attr s.attrs name 0

let mem s name =
  Array.exists (fun a -> String.equal a.attr_name name) s.attrs

let type_of s name = s.attrs.(index_of s name).attr_type
let type_at s i = s.attrs.(i).attr_type
let name_at s i = s.attrs.(i).attr_name

let names s = Array.to_list (Array.map (fun a -> a.attr_name) s.attrs)

let check_distinct_names attrs =
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun a ->
      if Hashtbl.mem seen a.attr_name then
        Errors.schema_error "duplicate attribute name %s" a.attr_name
      else Hashtbl.add seen a.attr_name ())
    attrs

(* [make attrs ~key] builds a schema whose key is the named attribute
   subset.  An empty [key] list declares the whole tuple as key (set
   semantics) — the convention used for all intermediate reference
   relations of the paper's Section 3.2. *)
let make attr_list ~key =
  let attrs = Array.of_list attr_list in
  if Array.length attrs = 0 then Errors.schema_error "schema with no attributes";
  check_distinct_names attrs;
  let index_of_name name =
    let rec find i =
      if i >= Array.length attrs then
        Errors.schema_error "key attribute %s not in schema" name
      else if String.equal attrs.(i).attr_name name then i
      else find (i + 1)
    in
    find 0
  in
  let key =
    match key with
    | [] -> Array.init (Array.length attrs) (fun i -> i)
    | names -> Array.of_list (List.map index_of_name names)
  in
  { attrs; key }

let key_names s =
  Array.to_list (Array.map (fun i -> s.attrs.(i).attr_name) s.key)

(* Schema of a projection onto the given attribute names, in the order
   given.  The projection result is keyed by all its attributes. *)
let project s names =
  let attr_list = List.map (fun n -> s.attrs.(index_of s n)) names in
  make attr_list ~key:[]

(* Concatenation for products and joins; attribute names must remain
   distinct, callers rename beforehand when needed. *)
let concat a b =
  make (attrs a @ attrs b) ~key:[]

let rename s mapping =
  let rename_one a =
    match List.assoc_opt a.attr_name mapping with
    | Some fresh -> { a with attr_name = fresh }
    | None -> a
  in
  let attrs = Array.map rename_one s.attrs in
  check_distinct_names attrs;
  { s with attrs }

(* Structural equality of the attribute lists (names and types, in
   order); the key is ignored because set operations care only about
   tuple shape. *)
let compatible a b =
  arity a = arity b
  && Array.for_all2
       (fun x y ->
         String.equal x.attr_name y.attr_name
         && Vtype.equal x.attr_type y.attr_type)
       a.attrs b.attrs

(* Same attribute types in order, names ignored: sufficient for unions
   of intermediate results that were built by different subexpressions. *)
let same_shape a b =
  arity a = arity b
  && Array.for_all2 (fun x y -> Vtype.equal x.attr_type y.attr_type) a.attrs
       b.attrs

let pp ppf s =
  let pp_attr ppf a =
    Fmt.pf ppf "%s : %a" a.attr_name Vtype.pp a.attr_type
  in
  Fmt.pf ppf "<%a> OF (%a)"
    (Fmt.list ~sep:Fmt.comma Fmt.string)
    (key_names s)
    (Fmt.array ~sep:Fmt.semi pp_attr)
    s.attrs
