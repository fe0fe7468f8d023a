"""Published benchmark numbers for the datasets this pipeline targets.

These are context for reading reports, not expectations this code asserts:
the original runs used word lists, cluster models, embeddings, and external
tools that are not redistributable, so measured values on substitute
resources will differ. Accuracies are percentages.
"""

# leave-one-rumour-out benchmark accuracies per event, all features
LOO_ACCURACY = {
    "knn": {"ottawa": 70.31, "ferguson": 72.35, "charliehebdo": 78.33,
            "sydneysiege": 75.44, "macro": 74.10},
    "tree": {"ottawa": 76.28, "ferguson": 75.20, "charliehebdo": 78.21,
             "sydneysiege": 80.01, "macro": 77.42},
    "forest": {"ottawa": 69.39, "ferguson": 69.16, "charliehebdo": 74.57,
               "sydneysiege": 74.49, "macro": 71.90},
}

# the same protocol with the confidence features removed
LOO_ACCURACY_WITHOUT_AF = {
    "knn": {"ottawa": 69.26, "ferguson": 69.54, "charliehebdo": 77.09,
            "sydneysiege": 73.28, "macro": 72.29},
    "tree": {"ottawa": 75.62, "ferguson": 74.85, "charliehebdo": 77.05,
             "sydneysiege": 79.21, "macro": 76.68},
    "forest": {"ottawa": 67.87, "ferguson": 68.31, "charliehebdo": 75.40,
               "sydneysiege": 72.57, "macro": 71.03},
}

# random-forest ablation ladder on the fixed split (confidence features
# removed one at a time, then all together)
ABLATION_LADDER = {
    "forest": {"all": 79.02, "AF": 76.54, "AF_ITS": 78.55, "AF_SS": 77.59,
               "AF_SPS": 78.16, "AF_DS": 78.36, "AF_NDS": 77.59, "AF_IQ": 78.64},
}
