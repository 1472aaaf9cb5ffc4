(** Common interface for policy region structures.

    Every implementation stores its entries in *simulated kernel memory*
    and performs its probes through {!Kernel.read}/{!Kernel.write}, so the
    cost of a policy lookup is mechanistic: the linear table is
    prefetch-friendly and branch-predictable, the splay tree chases
    pointers and restructures on every hit, the interval tree prunes a
    balanced tree by subtree limit, the shadow table answers a whole page
    from one hot slot. This is how the repo reproduces the paper's
    §3.1/§4.2 discussion of structure trade-offs rather than asserting
    it. *)

(** Stable id of a simulated branch site, the [~pc] of
    {!Machine.Model.branch}: a hash of a tag and the site's coordinates.
    Structures compute their ids once, when they are built, so a lookup
    never hashes; kept out of line so the hot-path objects carry no hash
    call at all. *)
let[@inline never] branch_site key = Hashtbl.hash key

type outcome = {
  matched : Region.t option;  (** first region containing the range *)
  scanned : int;  (** entries (or nodes/probes) examined *)
}

(** Typed escape hatch from the packed {!instance}: implementations that
    expose integrity-auditable internals (the shadow table's slot arrays,
    the linear table's entry mirror) extend this variant with their own
    constructor; everything else answers {!Opaque}. The integrity layer
    uses it to reach tier metadata without widening the lookup API. *)
type repr = ..

type repr += Opaque

(** Why an [add] was refused. [Full capacity]: the structure already
    holds [capacity] regions. [Overlap (added, existing)]: the structure
    cannot represent two overlapping regions (the splay tree's
    trade-off), and [added] overlaps [existing]. *)
type add_error = Full of int | Overlap of Region.t * Region.t

let add_error_to_string = function
  | Full capacity -> Printf.sprintf "policy table full (%d regions)" capacity
  | Overlap (added, existing) ->
    Printf.sprintf "cannot hold overlapping regions (%s vs %s)"
      (Region.to_string added) (Region.to_string existing)

(** The ioctl return code for a refused add: [-ENOSPC] when the table is
    full, [-EINVAL] for a region the structure cannot represent. *)
let errno = function Full _ -> Kernel.enospc | Overlap _ -> Kernel.einval

module type S = sig
  type t

  val name : string
  val create : Kernel.t -> capacity:int -> t

  val add : t -> Region.t -> (unit, add_error) result
  (** Append/insert a rule. Implementations that cannot represent
      overlapping regions (the splay tree — the trade-off the paper calls
      out) return [Error (Overlap _)]. *)

  val remove : t -> base:int -> bool
  val clear : t -> unit
  val count : t -> int
  val regions : t -> Region.t list

  val lookup : t -> addr:int -> size:int -> outcome
  (** Find the first/best region containing [addr, addr+size), charging
      machine cost for every probe. *)

  val table_region : t -> (int * int) option
  (** [(vaddr, bytes)] of the structure's contiguous in-kernel table, if
      it keeps one — the policy data an attacker would corrupt. Node-based
      structures (trees) scatter per-insert allocations and return
      [None]. *)

  val repr : t -> repr
  (** The structure's typed self-description (see {!type:repr});
      {!Opaque} when it exposes no auditable internals. *)
end

type instance = I : (module S with type t = 'a) * 'a -> instance

let name (I ((module M), _)) = M.name
let add (I ((module M), t)) r = M.add t r
let remove (I ((module M), t)) ~base = M.remove t ~base
let clear (I ((module M), t)) = M.clear t
let count (I ((module M), t)) = M.count t
let regions (I ((module M), t)) = M.regions t
let lookup (I ((module M), t)) ~addr ~size = M.lookup t ~addr ~size
let table_region (I ((module M), t)) = M.table_region t
let repr (I ((module M), t)) = M.repr t

(** Add [rs] in order, stopping at the first refused add. *)
let rec add_all inst = function
  | [] -> Ok ()
  | r :: rest -> (
    match add inst r with Ok () -> add_all inst rest | Error _ as e -> e)
