(** Growable int stack shared by {!Cdcl} and {!Simp_db}.

    [data] beyond [size] is garbage; clients may snapshot a prefix of
    [data] directly.  [get] and [set] do not check [i < size]. *)

type t = { mutable data : int array; mutable size : int }

(** The one shared empty list.  Per-literal tables start every slot at
    [empty] ([Array.make n Vec.empty]) and append through {!push_at},
    which gives a slot its own storage on its first element.  [empty]
    itself never grows: {!push} on it raises [Invalid_argument];
    [shrink empty 0] is a no-op. *)
val empty : t

(** A fresh list with room for 8 elements. *)
val create : unit -> t

val push : t -> int -> unit

(** [push_at a i x] appends [x] to [a.(i)], first replacing the shared
    {!empty} sentinel with a list of its own. *)
val push_at : t array -> int -> int -> unit

val get : t -> int -> int
val set : t -> int -> int -> unit
val size : t -> int

(** [shrink v n] drops every element from index [n] on ([n <= size v]). *)
val shrink : t -> int -> unit
