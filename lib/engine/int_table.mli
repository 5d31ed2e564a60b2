(** Flat open-addressing table with [int] keys: the one table type of
    simulator state (pair keys are packed into one int).

    A replacement for stdlib [Hashtbl]: linear probing over a
    power-of-two array pair, no per-binding allocation, allocation-free
    lookup via [find_default], and tombstone-free deletion
    (backward-shift compaction).

    The caller supplies a [dummy] value used to pad empty slots, as with
    {!Event_queue}; the dummy is never returned by iteration.  One key is
    reserved as the empty-slot sentinel ([min_int]).

    Iteration order is deterministic — a pure function of the operation
    history, with a fixed (never salted) hash — but unsorted; use
    [sorted_keys] or [iter_sorted] when traversal order is observable
    (clove-check's [sema-hashtbl-order] rule flags an effectful [fold]
    closure). *)

type 'a t

val create : capacity:int -> dummy:'a -> 'a t
(** [capacity] is rounded up to a power of two (at least 2); the table
    doubles when more than 5/8 of it is full. *)

val length : 'a t -> int
val mem : 'a t -> int -> bool

val find_default : 'a t -> int -> 'a -> 'a
(** [find_default t key default] is the bound value, or [default] if
    [key] is absent.  Allocates nothing; the idiomatic hot-path lookup is
    [find_default t k sentinel == sentinel] with a physically distinct
    sentinel. *)

val find_opt : 'a t -> int -> 'a option
(** Boxing lookup for cold paths that need a real absence witness. *)

val set : 'a t -> int -> 'a -> unit
(** Insert or replace.  Raises [Invalid_argument] on the reserved key. *)

val remove : 'a t -> int -> unit
(** No-op if absent; otherwise backward-shift deletion (no tombstones). *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Slot order: deterministic but unsorted — effects must not care, or
    use [iter_sorted].  [fold] allocates nothing itself; the table must
    not change during it. *)

val sorted_keys : 'a t -> int list
val iter_sorted : (int -> 'a -> unit) -> 'a t -> unit
val clear : 'a t -> unit
