(** Write-ahead alert/eviction journal.

    Checkpoints ({!Snapshot}) are periodic; the journal is continuous.
    Every distinct alert and every resource reclamation is appended and
    flushed the moment it happens, so a crash between checkpoints loses no
    delivered alert.  [Checkpoint] marker entries pair the journal with
    snapshot sequence numbers so recovery can split it at exactly the
    right point.

    Each line carries its own CRC-32.  The loader is lenient by design:
    a line torn by the crash itself (the expected failure mode for an
    append-only file) is skipped and reported, never fatal. *)

type entry =
  | Alert of Alert.t
  | Eviction of { at : Dsim.Time.t; subject : string; detail : string }
  | Checkpoint of { at : Dsim.Time.t; seq : int }
      (** Written right after a snapshot with this sequence number is
          durably saved. *)
  | Ext of { at : Dsim.Time.t; tag : string; payload : string }
      (** A record for a subsystem layered on top of the engine (e.g. an
          enforcement decision), uninterpreted here.  Journaled with the
          same durability as an alert.  Recovery re-takes each decision
          by replaying the capture, and checks the replay against the
          journaled ones ({!Recovery.outcome}'s [not_reproduced]). *)

val entry_to_line : entry -> string
(** One entry's line, no newline: [<crc32> <tag> <fields…>] with strings
    hex-armored.  Recovery compares journaled and replayed entries by
    it. *)

val entry_of_line : string -> (entry, string) result
(** Test seam: reads one line back, as the corruption tests do.  Total:
    CRC mismatches and malformed fields are [Error]. *)

(** {1 Writing} *)

type writer

val create_writer : ?registry:Obs.Metrics.t -> string -> writer
(** Opens (append, create) the journal file.  With [registry], each
    append+flush's wall-clock duration is observed into a
    [vids_journal_append_seconds] histogram. *)

val append : writer -> entry -> unit
(** Appends and flushes one entry. *)

val fsync_writer : writer -> unit
(** Forces the journal past the OS cache ([fsync]).  Appends flush to the
    kernel on every entry; full durability is batched — the daemon calls
    this at each checkpoint and at shutdown. *)

val close_writer : writer -> unit
(** Fsyncs, then closes. *)

(** {1 Reading} *)

val load_numbered : string -> ((int * entry) list * (int * string) list, string) result
(** Loads leniently, each entry with its line number (from 1): a torn or
    corrupt line is skipped and reported as [(line, reason)].  [Error],
    naming the file, only when the file itself cannot be opened or read
    (a directory, say). *)

val load : string -> (entry list * (int * string) list, string) result
(** Test seam: {!load_numbered} without the line numbers. *)

val suffix_after : seq:int -> at:Dsim.Time.t -> (int * entry) list -> (int * entry) list
(** Entries recorded after the [Checkpoint] marker with the given sequence
    number — the part of the journal the snapshot does not already cover.
    When no such marker exists (rotated journal, pre-journal snapshot),
    falls back to entries timestamped strictly after [at]. *)
