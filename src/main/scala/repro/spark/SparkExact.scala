package repro.spark

import org.apache.spark.sql.{DataFrame, functions => F}

/** Algorithm 2 (Network-Construct-Histo) on Spark: Lemma 1 evaluated as a
  * single Catalyst aggregation per pair over the persisted pair sketch.
  *
  * Lemma 1 is algebraically expanded so no second pass for the grand mean
  * is needed — with gm_x = Σ B·m_x / T:
  *
  *   numerator = Σ B σ_x σ_y c + Σ B m_x m_y − (Σ B m_x)(Σ B m_y)/T
  *   T σ_x²    = Σ B σ_x²      + Σ B m_x²   − (Σ B m_x)²/T
  *
  * which is a fold over per-window products — exactly a `groupBy(i, j)`
  * with nine `sum`s. The correlation is 0 when either T·σ² is ≤ 0, as in
  * [[repro.core.ExactCorrelation.corr]].
  */
object SparkExact {

  /** Exact per-pair correlation on the query window spanned by basic
    * windows [wLo, wHi] (inclusive). Output: (i, j, corr).
    */
  def correlationMatrix(pairSketch: DataFrame, wLo: Long, wHi: Long): DataFrame = {
    val t = F.col("T")
    pairSketch
      .filter(F.col("w").between(wLo, wHi))
      .groupBy("i", "j")
      .agg(
        F.sum(F.col("b")).cast("double").as("T"),
        F.sum(F.col("b") * F.col("mean_x")).as("smx"),
        F.sum(F.col("b") * F.col("mean_y")).as("smy"),
        F.sum(F.col("b") * F.col("mean_x") * F.col("mean_y")).as("smxy"),
        F.sum(F.col("b") * F.col("mean_x") * F.col("mean_x")).as("smx2"),
        F.sum(F.col("b") * F.col("mean_y") * F.col("mean_y")).as("smy2"),
        F.sum(F.col("b") * F.col("std_x") * F.col("std_y") * F.col("c")).as("scov"),
        F.sum(F.col("b") * F.col("std_x") * F.col("std_x")).as("svx"),
        F.sum(F.col("b") * F.col("std_y") * F.col("std_y")).as("svy"),
      )
      .withColumn("vx", F.col("svx") + F.col("smx2") - F.col("smx") * F.col("smx") / t)
      .withColumn("vy", F.col("svy") + F.col("smy2") - F.col("smy") * F.col("smy") / t)
      .select(
        F.col("i"), F.col("j"),
        // ExactCorrelation.corr's rule: 0 when either side is constant
        // (Spark's ANSI mode would otherwise throw on the zero divisor)
        F.when(F.col("vx") <= 0.0 || F.col("vy") <= 0.0, 0.0)
          .otherwise((F.col("scov") + F.col("smxy") - F.col("smx") * F.col("smy") / t) /
            F.sqrt(F.col("vx") * F.col("vy"))).as("corr"),
      )
  }

  /** DFT-approximate per-pair correlation on the same window — Equation 5
    * folded through the Lemma-1 aggregation with c replaced by 1 − d²/2.
    * Requires a `d_sq` column (sketch built with `nCoeff > 0`).
    */
  def approxCorrelationMatrix(pairSketch: DataFrame, wLo: Long, wHi: Long): DataFrame =
    correlationMatrix(
      pairSketch.withColumn("c", F.lit(1.0) - F.col("d_sq") / 2.0), wLo, wHi)

  /** Thresholded edge list (i, j, corr > θ) from a correlation matrix. */
  def edges(corrDf: DataFrame, theta: Double): DataFrame =
    corrDf.filter(F.col("corr") > theta)
}
