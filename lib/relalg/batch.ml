(* Column-major tuple batches for the vectorized stream kernels.

   A batch holds a few thousand rows of one schema as column arrays:
   integer and boolean components are unboxed ([int array] / one byte
   per row in [Bytes]); every other column holds ids of a
   {!pool}, so every downstream kernel — selection, projection,
   duplicate elimination, hash join build/probe, division — works on
   machine integers.

   The pool is one execution's tuple table.  A reference made during
   the execution is an ordinal: the collection scan that finds a base
   element asks {!ordinals} once per structure it feeds, gets the same
   ordinal for the same (relation, key) every time, and the table keeps
   the physical tuple there for construction to read back by array
   index.  A relation handed to the kernels as a {!Relation.t} (the
   relation-level API) has its strings, enums and stored references
   interned as values instead.

   Equality is preserved by construction: both numberings are
   injective, so two rows are equal iff their integer rows are
   component-wise equal (integer columns store the value itself,
   boolean columns the 0/1 byte, the others the pool id).  That makes
   integer-row comparison a sound implementation of tuple comparison
   inside one pool — the invariant the batched kernels rest on.

   A batch also carries an optional selection vector: the ascending live
   row indices.  Filters refine the vector instead of compacting the
   columns, and projections share the column arrays outright; only the
   row-multiplying operators (join, product) gather into fresh dense
   columns. *)

module Vtbl = Value_key.Vtable

type col = C_int of int array | C_bool of Bytes.t | C_obj of int array

type columns = {
  c_name : string;
  c_schema : Schema.t;
  c_cols : col array;
  c_rows : int;
}

(* One relation's share of the tuple table: its ordinals by key, open
   addressing over the key hash.  A slot packs the key's 31 hash bits
   above its ordinal + 1 in the low 31 bits (0 is free), so growing the
   table moves integers without hashing a key again, and a probe passes
   over a slot whose hash bits differ without comparing keys. *)
type owned = {
  pos : int array;  (* the relation's key positions *)
  mutable slots : int array;
  mutable used : int;
}

type pool = {
  mutable tuples : Tuple.t array;  (* ordinal -> element *)
  mutable nt : int;
  owned : (string, owned) Hashtbl.t;  (* relation name -> its ordinals *)
  mutable vals : Value.t array;  (* value id -> the interned value *)
  mutable n : int;
  ids : int Vtbl.t;  (* value -> value id *)
}

type t = {
  cols : col array;
  nrows : int;                (* physical length of every column *)
  sel : int array option;     (* ascending live row indices; None = all *)
}

let create_pool () =
  {
    tuples = Array.make 64 [||];
    nt = 0;
    owned = Hashtbl.create 8;
    vals = Array.make 16 (Value.VInt 0);
    n = 0;
    ids = Vtbl.create 16;
  }

let grown a n fill =
  let bigger = Array.make (2 * n) fill in
  Array.blit a 0 bigger 0 n;
  bigger

(* --- The tuple table -------------------------------------------------- *)

(* A slot's two halves, 31 bits each: 62 bits fit an OCaml int.  The
   low half caps one table at 2^31 - 2 ordinals, two billion tuples. *)
let ord_bits = 31
let ord_mask = (1 lsl ord_bits) - 1

(* The table's own key hash, 31 bits: an integer component mixes in as
   itself, without a call into the runtime's hash, any other through
   {!Value.hash}; the high bits of one multiplication spread the sum
   over all 31. *)
let key_hash pos (t : Tuple.t) =
  let h = ref 17 in
  for i = 0 to Array.length pos - 1 do
    h :=
      (!h * 31)
      + (match t.(pos.(i)) with Value.VInt n -> n | v -> Value.hash v)
  done;
  (!h * 0x2545F4914F6CDD1D) lsr (Sys.int_size - ord_bits)

let rec same_key pos (a : Tuple.t) (b : Tuple.t) i =
  i >= Array.length pos
  || (Value.equal a.(pos.(i)) b.(pos.(i)) && same_key pos a b (i + 1))

(* The slot holding [t]'s key, hashed to [h], or the free slot ending
   its probe run. *)
let rec slot pool o h (t : Tuple.t) i =
  let s = o.slots.(i) in
  if
    s = 0
    || s lsr ord_bits = h
       &&
       let u = pool.tuples.((s land ord_mask) - 1) in
       u == t || same_key o.pos u t 0
  then i
  else slot pool o h t ((i + 1) land (Array.length o.slots - 1))

let rehash o =
  let slots = Array.make (2 * Array.length o.slots) 0 in
  let mask = Array.length slots - 1 in
  Array.iter
    (fun s ->
      if s > 0 then begin
        let i = ref ((s lsr ord_bits) land mask) in
        while slots.(!i) <> 0 do
          i := (!i + 1) land mask
        done;
        slots.(!i) <- s
      end)
    o.slots;
  o.slots <- slots

let ordinal pool o t =
  let h = key_hash o.pos t in
  let i = slot pool o h t (h land (Array.length o.slots - 1)) in
  let s = o.slots.(i) in
  if s > 0 then (s land ord_mask) - 1
  else begin
    let ord = pool.nt in
    if ord + 1 > ord_mask then invalid_arg "Batch.ordinals: tuple table full";
    if ord = Array.length pool.tuples then
      pool.tuples <- grown pool.tuples ord [||];
    pool.tuples.(ord) <- t;
    pool.nt <- ord + 1;
    o.slots.(i) <- (h lsl ord_bits) lor (ord + 1);
    o.used <- o.used + 1;
    if 2 * o.used > Array.length o.slots then rehash o;
    ord
  end

let ordinals pool rel =
  let name = Relation.name rel in
  let o =
    match Hashtbl.find_opt pool.owned name with
    | Some o -> o
    | None ->
      let o =
        {
          pos = Schema.key_positions (Relation.schema rel);
          slots = Array.make 16 0;
          used = 0;
        }
      in
      Hashtbl.replace pool.owned name o;
      o
  in
  ordinal pool o

let tuple_at pool ord = pool.tuples.(ord)

(* --- Value interning (the relation-level API) ------------------------- *)

let intern pool v =
  match Vtbl.find_opt pool.ids v with
  | Some id -> id
  | None ->
    let id = pool.n in
    if id = Array.length pool.vals then
      pool.vals <- grown pool.vals id (Value.VInt 0);
    pool.vals.(id) <- v;
    pool.n <- id + 1;
    Vtbl.replace pool.ids v id;
    id

(* Column class per attribute domain.  Integer-like and boolean domains
   get unboxed columns; everything else goes through the pool. *)
type cls = K_int | K_bool | K_obj

let cls_of_type = function
  | Vtype.TInt _ -> K_int
  | Vtype.TBool -> K_bool
  | Vtype.TStr _ | Vtype.TEnum _ | Vtype.TRef _ -> K_obj

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
   (bool) or the pool id.  Comparable across batches of one pool when
   the column classes agree. *)
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

(* A zero-copy window onto columns: the arrays are shared, the
   selection vector names the window's rows. *)
let window c ~off ~len =
  {
    cols = c.c_cols;
    nrows = c.c_rows;
    sel =
      (if off = 0 && len = c.c_rows then None
       else Some (Array.init len (fun i -> off + i)));
  }

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
let of_cols cols nrows = { cols; nrows; sel = None }

(* Growable integer vector — collects the gather indices of a join
   whose output size is not known up front. *)
module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then v.a <- grown v.a v.n 0;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n
  let to_array v = Array.sub v.a 0 v.n
end

(* --- Column builder -------------------------------------------------- *)

type acc = {
  a_name : string;
  a_schema : Schema.t;
  a_cls : cls array;
  a_vecs : Ivec.t array;
}

let acc_create ~name schema =
  let cls =
    Array.init (Schema.arity schema) (fun c ->
        cls_of_type (Schema.type_at schema c))
  in
  {
    a_name = name;
    a_schema = schema;
    a_cls = cls;
    a_vecs = Array.map (fun _ -> Ivec.create ()) cls;
  }

let acc_push acc b row =
  Array.iteri (fun c vec -> Ivec.push vec (cell b.cols.(c) row)) acc.a_vecs

let acc_push_cell acc c x = Ivec.push acc.a_vecs.(c) x

let acc_finish acc =
  let n = Ivec.length acc.a_vecs.(0) in
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
  { c_name = acc.a_name; c_schema = acc.a_schema; c_cols = cols; c_rows = n }

(* --- Relations in and out -------------------------------------------- *)

(* A value that does not fit its column's declared class (a non-integer
   in a TInt column, say).  Tuples written through the checked insertion
   path can never trigger it. *)
let misfit schema c v =
  Errors.type_error "%a does not fit column %s : %a" Value.pp v
    (Schema.name_at schema c) Vtype.pp (Schema.type_at schema c)

let of_relation pool rel =
  let schema = Relation.schema rel in
  let acc = acc_create ~name:(Relation.name rel) schema in
  let image c v =
    match acc.a_cls.(c), v with
    | K_int, Value.VInt n -> n
    | K_bool, Value.VBool x -> Bool.to_int x
    | K_obj, v -> intern pool v
    | (K_int | K_bool), v -> misfit schema c v
  in
  Relation.iter
    (fun t -> Array.iteri (fun c v -> acc_push_cell acc c (image c v)) t)
    rel;
  acc_finish acc

let to_relation pool c =
  let out =
    Relation.create ~name:c.c_name
      (Schema.make (Schema.attrs c.c_schema) ~key:[])
  in
  for r = 0 to c.c_rows - 1 do
    Relation.insert_unchecked out
      (Array.map (fun col -> cell_value pool col r) c.c_cols)
  done;
  out

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
