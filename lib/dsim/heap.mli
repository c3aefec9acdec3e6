(** A resizable array-backed binary min-heap. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option

val pop : 'a t -> 'a option
(** Removes and returns the minimum element. *)
