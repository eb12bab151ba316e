(* Column-major tuple batches for the vectorized stream kernels.

   A batch holds a few thousand rows of one schema as column arrays:
   integer and boolean components are unboxed ([int array] / one byte
   per row in [Bytes]), everything else — strings, enums, references —
   is interned into a chain-scoped {!pool} and stored as [int array] of
   pool ids.  Interning pays each value's structural hash (deep for the
   nested-key references the combination phase traffics in) exactly once
   per distinct value per chain; every downstream kernel — selection,
   projection, duplicate elimination, hash join build/probe — then works
   on machine integers.

   Equality is preserved by construction: interning is injective with
   respect to {!Value.equal}, so two rows are {!Tuple.equal} iff their
   encoded integer rows are component-wise equal (integer columns store
   the value itself, boolean columns the 0/1 byte, interned columns the
   pool id).  That makes integer-row comparison a sound implementation
   of tuple comparison inside one pool — the invariant the batched
   kernels rest on.

   A batch also carries an optional selection vector: the ascending live
   row indices.  Filters refine the vector instead of compacting the
   columns, and projections share the column arrays outright; only the
   row-multiplying operators (join, product) gather into fresh dense
   columns. *)

module Vtbl = Value_key.Vtable

type col = C_int of int array | C_bool of Bytes.t | C_obj of int array

(* One encoded relation, kept in the pool's cache: all columns in the
   relation's (uninstrumented) iteration order. *)
type encoded = { e_cols : col array; e_rows : int }

type pool = {
  mutable vals : Value.t array;  (* id -> the interned value *)
  mutable n : int;
  ids : int Vtbl.t;              (* value -> id *)
  mutable cache : (Relation.t * int * encoded) list;
      (* per-relation encodes, keyed by physical identity + version *)
  mutable ucache : (Relation.t * int * encoded Lazy.t) list;
      (* encodes registered by the relation's builder (the stream
         materializer, the collection phase's pair builder), forced on
         first use — the same row set as [cache] would hold but not
         necessarily the relation's iteration order; only
         order-insensitive consumers may look here *)
}

type t = {
  cols : col array;
  nrows : int;                (* physical length of every column *)
  sel : int array option;     (* ascending live row indices; None = all *)
  pool : pool;
}

let create_pool () =
  {
    vals = Array.make 64 (Value.VInt 0);
    n = 0;
    ids = Vtbl.create 256;
    cache = [];
    ucache = [];
  }

let intern pool v =
  match Vtbl.find_opt pool.ids v with
  | Some id -> id
  | None ->
    let id = pool.n in
    if id = Array.length pool.vals then begin
      let bigger = Array.make (2 * id) (Value.VInt 0) in
      Array.blit pool.vals 0 bigger 0 id;
      pool.vals <- bigger
    end;
    pool.vals.(id) <- v;
    pool.n <- id + 1;
    Vtbl.replace pool.ids v id;
    id

let value pool id = pool.vals.(id)

(* Column class per attribute domain.  Integer-like and boolean domains
   get unboxed columns; everything else goes through the pool.  Enums
   could store their ordinal, but interning returns the physically
   original value — no reconstruction subtleties — and enum columns are
   tiny-cardinality anyway. *)
type cls = K_int | K_bool | K_obj

let cls_of_type = function
  | Vtype.TInt _ -> K_int
  | Vtype.TBool -> K_bool
  | Vtype.TStr _ | Vtype.TEnum _ | Vtype.TRef _ -> K_obj

(* --- Encoding ------------------------------------------------------- *)

(* A value that does not fit its column's declared class (a non-integer
   in a TInt column, say).  Tuples written through the checked insertion
   path can never trigger it. *)
let misfit schema c v =
  Errors.type_error "%a does not fit column %s : %a" Value.pp v
    (Schema.name_at schema c) Vtype.pp (Schema.type_at schema c)

let encode_rows pool schema rows nrows =
  let arity = Schema.arity schema in
  let cols =
    Array.init arity (fun c ->
        match cls_of_type (Schema.type_at schema c) with
        | K_int ->
          let a = Array.make nrows 0 in
          List.iteri
            (fun r (t : Tuple.t) ->
              match t.(c) with
              | Value.VInt n -> a.(r) <- n
              | v -> misfit schema c v)
            rows;
          C_int a
        | K_bool ->
          let b = Bytes.make nrows '\000' in
          List.iteri
            (fun r (t : Tuple.t) ->
              match t.(c) with
              | Value.VBool x -> if x then Bytes.set b r '\001'
              | v -> misfit schema c v)
            rows;
          C_bool b
        | K_obj ->
          let a = Array.make nrows 0 in
          List.iteri (fun r (t : Tuple.t) -> a.(r) <- intern pool t.(c)) rows;
          C_obj a)
  in
  { e_cols = cols; e_rows = nrows }

(* Encode a whole relation (iteration order), memoized in the pool by
   physical identity and content version — base single lists are padded
   into every disjunct of a quantifier cohort, and the cache turns their
   per-disjunct re-encode into one encode per query. *)
let encode_relation pool rel =
  let version = Relation.version rel in
  let rec find = function
    | [] -> None
    | (r, v, enc) :: rest ->
      if r == rel then if v = version then Some enc else None else find rest
  in
  match find pool.cache with
  | Some enc -> enc
  | None ->
    let rows = List.rev (Relation.fold (fun acc t -> t :: acc) [] rel) in
    let enc = encode_rows pool (Relation.schema rel) rows (Relation.cardinality rel) in
    pool.cache <-
      (rel, version, enc) :: List.filter (fun (r, _, _) -> r != rel) pool.cache;
    enc

let encoded_rows enc = enc.e_rows

(* A relation's builder hands over the columns of the rows it inserted
   (deferred: nothing is built unless a consumer asks), so a later
   order-insensitive pass over the same relation skips the re-encode —
   for a large intermediate that is the single biggest cost of the
   columnar divide. *)
let register_unordered pool rel enc =
  pool.ucache <-
    (rel, Relation.version rel, enc)
    :: List.filter (fun (r, _, _) -> r != rel) pool.ucache

(* Encode for set-semantics consumers only: prefers a registered
   insertion-order encode, else takes (or fills) the iteration-order
   cache.  The row SET always equals the relation's contents; the row
   ORDER may not be the iteration order, so order-sensitive stream
   sources must keep using [encode_relation]. *)
let encode_relation_unordered pool rel =
  let version = Relation.version rel in
  let rec find = function
    | [] -> None
    | (r, v, enc) :: rest ->
      if r == rel then if v = version then Some enc else None else find rest
  in
  match find pool.ucache with
  | Some enc -> Lazy.force enc
  | None -> encode_relation pool rel

(* A zero-copy window onto an encoded relation: columns are shared, the
   selection vector names the window's rows. *)
let of_encoded pool enc ~off ~len =
  {
    cols = enc.e_cols;
    nrows = enc.e_rows;
    sel = (if off = 0 && len = enc.e_rows then None else Some (Array.init len (fun i -> off + i)));
    pool;
  }

(* --- Row access ----------------------------------------------------- *)

let live_count b =
  match b.sel with None -> b.nrows | Some s -> Array.length s

let live_iter f b =
  match b.sel with
  | None ->
    for i = 0 to b.nrows - 1 do
      f i
    done
  | Some s -> Array.iter f s

(* The integer image of one cell: the value itself (int), the 0/1 byte
   (bool) or the pool id (interned).  Comparable across batches of one
   pool when the column classes agree. *)
let cell col row =
  match col with
  | C_int a -> a.(row)
  | C_bool b -> Char.code (Bytes.get b row)
  | C_obj a -> a.(row)

let cell_value pool col row =
  match col with
  | C_int a -> Value.VInt a.(row)
  | C_bool b -> Value.VBool (Bytes.get b row <> '\000')
  | C_obj a -> pool.vals.(a.(row))

(* Decode one row back to a boxed tuple (the per-row adapter at the
   stream boundary).  Interned cells return the physically original
   value, so reference-typed hot paths re-box nothing but the tuple
   array itself. *)
let tuple b row =
  Array.init (Array.length b.cols) (fun c -> cell_value b.pool b.cols.(c) row)

(* --- Kernel building blocks ----------------------------------------- *)

let filter b pred =
  let buf = Array.make (live_count b) 0 in
  let n = ref 0 in
  live_iter
    (fun i ->
      if pred i then begin
        buf.(!n) <- i;
        incr n
      end)
    b;
  { b with sel = Some (Array.sub buf 0 !n) }

let project b positions =
  { b with cols = Array.map (fun c -> b.cols.(c)) positions }

(* Integer key of a row over the named columns — the unit the dedup sets
   and join tables hash. *)
let key_of_row cols positions row =
  Array.map (fun c -> cell cols.(c) row) positions

let gather_col col idx =
  let n = Array.length idx in
  match col with
  | C_int a -> C_int (Array.init n (fun i -> a.(idx.(i))))
  | C_bool b ->
    let out = Bytes.make n '\000' in
    for i = 0 to n - 1 do
      Bytes.set out i (Bytes.get b idx.(i))
    done;
    C_bool out
  | C_obj a -> C_obj (Array.init n (fun i -> a.(idx.(i))))

let gather_cols cols idx = Array.map (fun c -> gather_col c idx) cols

(* Dense batch from gathered columns. *)
let of_cols pool cols nrows = { cols; nrows; sel = None; pool }

(* Growable integer vector — collects the gather indices of a join
   whose output size is not known up front. *)
module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let bigger = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 bigger 0 v.n;
      v.a <- bigger
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n
  let to_array v = Array.sub v.a 0 v.n
end

(* --- Output accumulator ---------------------------------------------- *)

(* Collects the integer cells of rows the batched materializer actually
   inserted (duplicates skipped by the destination relation are skipped
   here too), and rebuilds them into an [encoded] for
   [register_unordered].  Column classes come from the destination
   schema so an empty output still yields well-shaped columns. *)
type acc = { a_cls : cls array; a_vecs : Ivec.t array }

let acc_create cls =
  { a_cls = cls; a_vecs = Array.map (fun _ -> Ivec.create ()) cls }

let acc_push acc b row =
  Array.iteri (fun c vec -> Ivec.push vec (cell b.cols.(c) row)) acc.a_vecs

(* Append one already-interned cell to one column — for builders that
   produce integer images directly instead of decoding a batch. *)
let acc_push_cell acc c x = Ivec.push acc.a_vecs.(c) x

let acc_finish acc =
  let n = if Array.length acc.a_vecs = 0 then 0 else Ivec.length acc.a_vecs.(0) in
  let cols =
    Array.mapi
      (fun c vec ->
        let a = Ivec.to_array vec in
        match acc.a_cls.(c) with
        | K_int -> C_int a
        | K_obj -> C_obj a
        | K_bool ->
          let b = Bytes.make n '\000' in
          Array.iteri (fun r x -> if x <> 0 then Bytes.set b r '\001') a;
          C_bool b)
      acc.a_vecs
  in
  { e_cols = cols; e_rows = n }

(* --- Integer-row hash tables ----------------------------------------- *)

module Ikey = Hashtbl.Make (struct
  type t = int array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec go i = i >= Array.length a || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let hash k = Array.fold_left (fun acc v -> (acc * 31) + v) 17 k
end)
