package repro.spark

import java.nio.file.{Files, Path, Paths}
import java.util.Comparator
import org.apache.spark.sql.{DataFrame, SaveMode, SparkSession}
import org.apache.spark.sql.types.LongType

/** Disk-based sketch store (paper §3.4) — substitution: the paper writes
  * sketches to PostgreSQL through a dedicated database worker; here Spark
  * writes them to the local filesystem. Format is selectable:
  *
  *  - `parquet`: the production choice (columnar, Spark-native).
  *  - `csv`: used by the Figure 6d space-overhead bench, because its
  *    uncompressed row-per-window layout exposes the L/B dependence of
  *    sketch size the way the paper's Postgres tables do (Parquet's
  *    encoding would mask it).
  *
  * The store keeps the same roles the experiments measure: sketch write
  * time (Fig 6a), query read time (Fig 6b), and on-disk size (Fig 6d).
  */
final case class SketchStore(root: String, format: String = "parquet") {
  require(format == "parquet" || format == "csv", s"unsupported format $format")

  private def pairPath = s"$root/pair_sketch"

  // CSV carries its column names in a header, so stores with and without
  // the DFT `d_sq` column both read back; numeric types are inferred.
  private def options =
    if (format == "csv") Map("header" -> "true", "inferSchema" -> "true") else Map.empty[String, String]

  /** Persist a pair sketch (drops the transient value/DFT arrays first —
    * the persisted columns are the paper's per-window statistics).
    */
  def writePair(sketch: DataFrame): Unit = {
    val persisted = sketch.select(
      sketch.columns.filter(c => c != "vx" && c != "vy" && c != "dft_x" && c != "dft_y")
        .map(sketch.col): _*)
    persisted.write.mode(SaveMode.Overwrite).format(format).options(options).save(pairPath)
  }

  /** Read the persisted pair sketch back, with the sketcher's column types
    * whatever the format: CSV infers the narrowest type, which would make
    * the window id `w` an `Int` where the sketch and Parquet hold a `Long`.
    */
  def readPair(spark: SparkSession): DataFrame = {
    val back = spark.read.format(format).options(options).load(pairPath)
    if (format == "csv") back.withColumn("w", back.col("w").cast(LongType)) else back
  }

  /** Total bytes of the persisted sketch (data files only). */
  def sizeBytes: Long = {
    val p = Paths.get(pairPath)
    if (!Files.exists(p)) 0L
    else {
      val s = Files.walk(p)
      try s.filter(f => Files.isRegularFile(f) && !f.getFileName.toString.startsWith("_"))
        .mapToLong(Files.size).sum()
      finally s.close()
    }
  }

  /** Remove the store. */
  def delete(): Unit = {
    val p = Paths.get(root)
    if (Files.exists(p)) {
      val s = Files.walk(p)
      try s.sorted(Comparator.reverseOrder[Path]()).forEach(f => Files.deleteIfExists(f))
      finally s.close()
    }
  }
}
