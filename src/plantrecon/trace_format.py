"""The column names of the trace CSV files, for the loaders in ``traces``
and the generator in ``synth``. It imports nothing, so the generator
writes traces without loading numpy.

* IO trace header: ``timestamp_ms,tag,value``
* RTLS trace header: ``timestamp_ms,tracker_id,x_m,y_m,z_m`` with an
  optional trailing ``location_label`` column (training data only).
"""

IO_COLUMNS = ("timestamp_ms", "tag", "value")
RTLS_COLUMNS = ("timestamp_ms", "tracker_id", "x_m", "y_m", "z_m")
RTLS_LABEL_COLUMN = "location_label"
