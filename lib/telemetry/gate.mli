(** Self-gating check lines shared by the bench harness and the CLI.

    A gate records named pass/fail checks under one tag and prints each
    as ["<TAG> CHECK <name>: PASS|FAIL (<detail>)"] — the line format CI
    greps.  A run exits non-zero when any check failed, so a FAIL line a
    grep pattern missed still fails the build. *)

type t

val create : ?quiet:bool -> string -> t
(** [create tag] prints every check as it is recorded; [quiet] records
    without printing (machine-readable output modes). *)

val check : t -> string -> bool -> string -> unit
(** [check g name ok detail] records one check and prints its line. *)

val failures : t -> string list
(** ["<TAG> <name> (<detail>)"] for each failed check, in order. *)

val exit_code : t -> int
(** 0 when every check passed, else 1. *)
