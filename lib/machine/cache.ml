(** Set-associative cache with LRU replacement.

    One instance per level; {!Hierarchy} in {!Model} composes L1/L2/L3.
    Tracks hits/misses for diagnostics. Addresses are simulated kernel
    virtual addresses; we index physically-tagged behaviour by the address
    itself, which is faithful enough for a direct-mapped kernel. *)

type t = {
  name : string;
  line_bits : int;
  sets : int;
  assoc : int;
  tags : int array;        (** sets * assoc, -1 = invalid *)
  lru : int array;         (** per-way recency; higher = more recent *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let log2_exact n =
  let rec go k v = if v = 1 then k else go (k + 1) (v lsr 1) in
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Cache.create: line size must be a power of two"
  else go 0 n

(* largest power of two <= n; real caches with odd capacities (6 MB L3)
   index by a power-of-two set count *)
let floor_pow2 n =
  let rec go p = if p * 2 > n then p else go (p * 2) in
  if n < 1 then invalid_arg "Cache.create: bad geometry" else go 1

let create ~name ~size_bytes ~assoc ~line_size =
  let lines = size_bytes / line_size in
  let sets = floor_pow2 (Int.max 1 (lines / assoc)) in
  ignore (log2_exact line_size);
  {
    name;
    line_bits = log2_exact line_size;
    sets;
    assoc;
    tags = Array.make (sets * assoc) (-1);
    lru = Array.make (sets * assoc) 0;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let set_index t addr = (addr lsr t.line_bits) land (t.sets - 1)
let tag_of t addr = addr lsr t.line_bits

(* Way scans as top-level functions with explicit arguments: a local
   [let rec] would capture its environment and allocate a closure per
   probe, and the probe sits on the guard fast path, which must not
   allocate. Integer-returning (-1 = miss), no option/ref intermediates.
   The [int array]/[int] annotations matter as much: left to inference
   the scans are polymorphic in the element type, and every [=] and [<]
   becomes a C call into [caml_equal]/[caml_lessthan] on each probe. *)
let rec find_way (tags : int array) base assoc (tag : int) w =
  if w = assoc then -1
  else if tags.(base + w) = tag then w
  else find_way tags base assoc tag (w + 1)

let rec worst_way (lru : int array) base assoc w best =
  if w = assoc then best
  else
    worst_way lru base assoc (w + 1)
      (if lru.(base + w) < lru.(base + best) then w else best)

(** Probe and update; true = hit. On miss the line is filled (inclusive
    hierarchy: the caller fills lower levels too). *)
let access t addr =
  t.clock <- t.clock + 1;
  let set = set_index t addr in
  let tag = tag_of t addr in
  let base = set * t.assoc in
  let w = find_way t.tags base t.assoc tag 0 in
  if w >= 0 then begin
    t.hits <- t.hits + 1;
    t.lru.(base + w) <- t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* evict LRU way *)
    let victim = worst_way t.lru base t.assoc 1 0 in
    t.tags.(base + victim) <- tag;
    t.lru.(base + victim) <- t.clock;
    false
  end

(** Number of cache lines an access [addr, addr+size) touches. *)
let lines_touched t addr size =
  if size <= 0 then 0
  else begin
    let first = addr lsr t.line_bits in
    let last = (addr + size - 1) lsr t.line_bits in
    last - first + 1
  end

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.lru 0 (Array.length t.lru) 0

(** Invalidate a random fraction of lines — models cache pollution from
    interrupts and other cores between trials. *)
let perturb t rng ~fraction =
  let n = Array.length t.tags in
  let k = int_of_float (float_of_int n *. fraction) in
  for _ = 1 to k do
    let i = Rng.int rng n in
    t.tags.(i) <- -1
  done

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
