package repro.core

/** Tokenisation and q-gram utilities (paper §2.1).
  *
  * Strings are tokenised on whitespace after lower-casing; q-grams are
  * the sliding q-letter substrings of a segment's text (tokens joined by
  * a single space). A segment shorter than q letters yields itself as
  * its only gram — the paper never pads.
  */
object Tokenizer {

  /** Lower-cased whitespace tokens of `s`, empty tokens dropped. */
  def tokens(s: String): Vector[String] =
    s.trim.toLowerCase.split("\\s+").iterator.filter(_.nonEmpty).toVector

  /** Canonical text of a token span (single space join). */
  def text(toks: Seq[String]): String = toks.mkString(" ")

  /** The multiset-free set of q-grams G(s, q) of a string. */
  def qgrams(s: String, q: Int): Set[String] = qgramOccurrences(s, q).toSet

  /** q-gram occurrences with multiplicity (|s|−q+1 entries), in order —
    * what pebble generation counts: Table 3 weighs "espresso" grams 1/7.
    */
  def qgramOccurrences(s: String, q: Int): Vector[String] = {
    require(q >= 1, s"q must be >= 1, got $q")
    if (s.isEmpty) Vector.empty
    else if (s.length <= q) Vector(s)
    else s.sliding(q).toVector
  }
}
