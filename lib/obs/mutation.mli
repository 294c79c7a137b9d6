(** Planted bugs for mutation testing.

    Each value names one deliberate defect in a production module; a
    checker is only worth trusting if its gate convicts them.  At most
    one is armed, only for the extent of {!with_armed}, which the VOPR
    executors call with the mutation they were given — so nothing is
    armed outside an execution.  Production code asks {!armed} at the
    one point where its defect acts. *)

type t =
  | Grow_only_drop  (** grow-only drops unreachable members and reports completion *)
  | Inval_drop  (** the lease cache ignores wire [Inval] callbacks *)
  | Axiom_flip  (** the visibility engine inverts its membership axiom *)
  | View_change_drop  (** a new leader drops the adopted log's uncommitted suffix *)
  | Shed_after_apply  (** a shed mutation applies its directory effect anyway *)

val all : t list

(** The kebab-case name used on command lines and in repro bundles. *)
val to_string : t -> string

val of_string : string -> t option

(** One line for [--help]. *)
val describe : t -> string

(** [armed m]: is [m] the mutation armed right now? *)
val armed : t -> bool

(** [with_armed m f] arms [m] ([None]: nothing) while [f ()] runs, and
    restores the previous slot afterwards, also when [f] raises. *)
val with_armed : t option -> (unit -> 'a) -> 'a
